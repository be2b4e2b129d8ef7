package hist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// The reference read path: Query and Series as they were when every
// read merged the whole store under the lock. refCollect copies every
// retained sample of every series, stable-sorts each series, and only
// then do refQuery and refSeries filter and count. The merge-only-what
// -is-returned path must answer every read byte-identically.

type refView struct {
	name    string
	labels  []obs.Label
	typ     string
	total   uint64
	samples []obs.Sample
}

func refCollect(st *Store) []refView {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	byKey := make(map[string][]*bucket)
	for _, sh := range st.shards {
		for key, b := range sh.series {
			byKey[key] = append(byKey[key], b)
		}
	}
	keys := make([]string, 0, len(byKey))
	for key := range byKey {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	out := make([]refView, 0, len(keys))
	for _, key := range keys {
		contribs := byKey[key]
		sort.SliceStable(contribs, func(i, j int) bool { return pathLess(contribs[i].path, contribs[j].path) })
		v := refView{name: contribs[0].name, labels: contribs[0].labels, typ: contribs[0].typ}
		for _, b := range contribs {
			v.total += b.total
			v.samples = b.appendRaw(v.samples)
		}
		sort.SliceStable(v.samples, func(i, j int) bool { return v.samples[i].T < v.samples[j].T })
		out = append(out, v)
	}
	return out
}

func refSeries(st *Store) []SeriesInfo {
	views := refCollect(st)
	out := make([]SeriesInfo, 0, len(views))
	for _, v := range views {
		out = append(out, SeriesInfo{
			Name:     v.name,
			Labels:   labelMap(v.labels),
			Type:     v.typ,
			Total:    v.total,
			Retained: len(v.samples),
		})
	}
	return out
}

func refQuery(st *Store, q Query) ([]Result, error) {
	name, want, err := ParseSelector(q.Selector)
	if err != nil {
		return nil, err
	}
	if err := validOp(q.Op); err != nil {
		return nil, err
	}
	var out []Result
	for _, v := range refCollect(st) {
		if v.name != name || !labelsMatch(v.labels, want) {
			continue
		}
		samples := applyOp(q.Op, sliceRange(v.samples, q.FromNs, q.ToNs))
		out = append(out, Result{
			Name:    v.name,
			Labels:  labelMap(v.labels),
			Type:    v.typ,
			Samples: samples,
			Total:   v.total,
		})
	}
	return out, nil
}

func refArchive(st *Store) *Archive {
	a := &Archive{Meta: Meta{Tool: st.opt.Tool, Seed: st.opt.Seed, Dropped: st.Dropped()}}
	for _, v := range refCollect(st) {
		a.Series = append(a.Series, Series{Name: v.name, Labels: v.labels, Type: v.typ, Total: v.total, Samples: v.samples})
	}
	return a
}

// renderQueryz renders a read the way /queryz does (indented JSON of
// the results), followed by every sample's exact bits: JSON cannot
// carry NaN, and the bits also tell +0 from -0.
func renderQueryz(res []Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(&sb, "json: %v\n", err)
	}
	for _, r := range res {
		for _, s := range r.Samples {
			fmt.Fprintf(&sb, "%d %016x\n", s.T, math.Float64bits(s.V))
		}
	}
	return sb.String()
}

var (
	refNames  = []string{"wan_snr_min_db", "wan_rounds_total", "rwc_sli_decisions_per_second"}
	refLabels = []obs.Label{obs.L("policy", "dynamic"), obs.L("policy", "static-max"), obs.L("link", `a"b,c`), obs.L("link", `d\e`)}
	refValues = []float64{math.NaN(), 0, math.Copysign(0, -1), 1, -1, 10.5, 11, math.Inf(1)}
)

// randomLabels draws a label subset with at most one value per key.
func randomLabels(r *rng.Source) []obs.Label {
	var out []obs.Label
	seen := map[string]bool{}
	for _, l := range refLabels {
		if r.Intn(3) == 0 && !seen[l.Key] {
			seen[l.Key] = true
			out = append(out, l)
		}
	}
	return out
}

// randomStore builds a root shard with nested children, a small ring
// so that rings wrap, timestamps shared across shards, and some series
// whose timestamps go backwards.
func randomStore(r *rng.Source) (*Store, [][]obs.Label) {
	st := New(Options{Retain: 1 + r.Intn(6), Tool: "ref", Seed: r.Uint64()})
	shards := []*Shard{st.Root()}
	for n := r.Intn(5); n > 0; n-- {
		shards = append(shards, shards[r.Intn(len(shards))].newChild())
	}
	var labelSets [][]obs.Label
	for i := r.Intn(12); i >= 0; i-- {
		name := refNames[r.Intn(len(refNames))]
		labels := randomLabels(r)
		labelSets = append(labelSets, labels)
		unordered := r.Intn(4) == 0
		for _, sh := range shards {
			if r.Intn(2) == 0 {
				continue
			}
			h := appender(sh, name, labels, "gauge")
			at := time.Duration(r.Intn(3)) * time.Hour
			for k := r.Intn(10); k > 0; k-- {
				if unordered && r.Intn(3) == 0 {
					at -= time.Duration(r.Intn(3)) * time.Hour
				} else {
					at += time.Duration(r.Intn(2)) * time.Hour
				}
				h(at, refValues[r.Intn(len(refValues))])
			}
		}
	}
	return st, labelSets
}

func randomQuery(r *rng.Source, labelSets [][]obs.Label) Query {
	name := refNames[r.Intn(len(refNames))]
	var sel string
	switch r.Intn(4) {
	case 0:
		sel = name
	case 1:
		sel = Key("wan_absent", nil)
	case 2:
		sel = Key(name, []obs.Label{obs.L("policy", "absent")})
	default:
		sel = Key(name, labelSets[r.Intn(len(labelSets))])
	}
	q := Query{
		Selector: sel,
		FromNs:   int64(r.Intn(14)-2) * time.Hour.Nanoseconds(),
		ToNs:     int64(r.Intn(14)-2) * time.Hour.Nanoseconds(),
		Op:       []string{"", OpRaw, OpMin, OpLast}[r.Intn(4)],
	}
	if r.Intn(3) == 0 {
		q.ToNs = -1
	}
	return q
}

func TestReadsMatchWholeStoreReference(t *testing.T) {
	r := rng.New(2017)
	for trial := 0; trial < 400; trial++ {
		st, labelSets := randomStore(r)
		if got, want := st.Series(), refSeries(st); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Series = %+v, reference %+v", trial, got, want)
		}
		var got, want bytes.Buffer
		if err := st.Archive().WriteBinary(&got); err != nil {
			t.Fatal(err)
		}
		if err := refArchive(st).WriteBinary(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trial %d: archive differs from the reference", trial)
		}
		var streamed bytes.Buffer
		if err := st.WriteBinary(&streamed); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed.Bytes(), want.Bytes()) {
			t.Fatalf("trial %d: Store.WriteBinary differs from the reference archive", trial)
		}
		for k := 0; k < 20; k++ {
			q := randomQuery(r, labelSets)
			got, want := renderQueryz(st.Query(q)), renderQueryz(refQuery(st, q))
			if got != want {
				t.Fatalf("trial %d: query %+v:\n%s\nreference:\n%s", trial, q, got, want)
			}
		}
	}
}

// TestReadsRaceAppends: reads run while writers register series,
// append and allocate shards; once the writers stop, every read still
// matches the reference. Run under -race.
func TestReadsRaceAppends(t *testing.T) {
	st := New(Options{Retain: 64})
	shards := []*Shard{st.Root(), st.Root().newChild(), st.Root().newChild()}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w, sh := range shards {
		writers.Add(1)
		go func(w int, sh *Shard) {
			defer writers.Done()
			for i := 0; i < 400; i++ {
				name := refNames[i%len(refNames)]
				appender(sh, name, []obs.Label{obs.L("w", fmt.Sprint(i%5))}, "gauge")(time.Duration(i)*time.Hour, float64(w))
				if i == 200 {
					sh = sh.newChild()
				}
			}
		}(w, sh)
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r {
				case 0:
					if _, err := st.Query(Query{Selector: refNames[0], ToNs: -1, Op: OpLast}); err != nil {
						t.Error(err)
						return
					}
				case 1:
					st.Series()
				case 2:
					st.Archive()
				default:
					if err := st.WriteBinary(io.Discard); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	for _, name := range refNames {
		q := Query{Selector: name, ToNs: -1}
		if got, want := renderQueryz(st.Query(q)), renderQueryz(refQuery(st, q)); got != want {
			t.Fatalf("query %s after the race:\n%s\nreference:\n%s", name, got, want)
		}
	}
}
