package flight

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/hist"
)

// handleScript is the hard cases in one frame sequence: two runs on one
// recorder, both over the DefaultMaxLinks budget, and three policies
// recording concurrently. byPolicy is keyed by scriptPolicies.
func handleScript() (links map[string][]Link, byPolicy map[string][]RoundRecord) {
	links = map[string][]Link{"a": nil, "b": nil}
	for i := 0; i < DefaultMaxLinks+2; i++ {
		links["a"] = append(links["a"], Link{Edge: i, Name: fmt.Sprintf("A%d->A%d", i, i+1), Fiber: i / 2})
	}
	for i := 0; i < DefaultMaxLinks+1; i++ {
		links["b"] = append(links["b"], Link{Edge: i, Name: fmt.Sprintf("B%d->B%d", i, i+1), Fiber: i})
	}
	byPolicy = make(map[string][]RoundRecord)
	for p, policy := range scriptPolicies {
		for round := 0; round < 12; round++ {
			for _, run := range []string{"a", "b"} {
				rec := RoundRecord{Run: run, Policy: policy, Round: round, OfferedGbps: 100, ShippedGbps: float64(90 - p)}
				for i := range links[run] {
					rec.Links = append(rec.Links, LinkRecord{
						LinkIndex:    i,
						SNRdB:        10 + float64(i) + float64(round)/4 + float64(p)/16,
						CapacityGbps: float64(100 * (1 + (i+round)%3)),
					})
				}
				byPolicy[policy] = append(byPolicy[policy], rec)
			}
		}
	}
	return links, byPolicy
}

var scriptPolicies = []string{"static-100G", "static-max", "dynamic"}

func archiveBytes(t *testing.T, st *hist.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.Archive().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refArchive is the history the script must leave: every admitted link
// record of the canonically sorted frames, in order, as one sample per
// gauge at round × testInterval — built by hand, not through the store.
func refArchive(meta Meta, runs []Run, frames []RoundRecord) *hist.Archive {
	byRun := map[string]Run{}
	for _, run := range runs {
		byRun[run.Name] = run
	}
	byKey := map[string]*hist.Series{}
	add := func(name string, labels []obs.Label, t time.Duration, v float64) {
		key := hist.Key(name, labels)
		s := byKey[key]
		if s == nil {
			s = &hist.Series{Name: name, Labels: labels, Type: "gauge"}
			byKey[key] = s
		}
		s.Total++
		s.Samples = append(s.Samples, obs.Sample{T: t, V: v})
	}
	for i := range frames {
		rec, run := &frames[i], byRun[frames[i].Run]
		t := time.Duration(rec.Round) * testInterval
		for i, l := range rec.Links[:run.Admitted] {
			labels := seriesLabels(run.Links[i].Name, rec) // link, policy, run: already in key order
			add(snrFamily, labels, t, l.SNRdB)
			add(capacityFamily, labels, t, l.CapacityGbps)
		}
	}
	keys := make([]string, 0, len(byKey))
	for key := range byKey {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	a := &hist.Archive{Meta: hist.Meta{Tool: meta.Tool, Seed: meta.Seed}}
	for _, key := range keys {
		a.Series = append(a.Series, *byKey[key])
	}
	return a
}

// TestHandlePathMatchesReregisteringReference drives the script through
// a recorder — serially, then with one goroutine per policy — and
// requires the history rebuilt from the written log, which resolves
// each (run, policy)'s series handles once, to serialize to the
// reference archive built by hand, one series lookup per sample.
func TestHandlePathMatchesReregisteringReference(t *testing.T) {
	links, byPolicy := handleScript()
	meta := Meta{Tool: "flight-test", Seed: 7}

	var frames []RoundRecord
	for _, policy := range scriptPolicies {
		frames = append(frames, byPolicy[policy]...)
	}
	sort.SliceStable(frames, func(i, j int) bool {
		a, b := &frames[i], &frames[j]
		if a.Run != b.Run {
			return a.Run < b.Run
		}
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		return a.Round < b.Round
	})
	runs := []Run{
		{Name: "a", Links: links["a"], Admitted: DefaultMaxLinks},
		{Name: "b", Links: links["b"], Admitted: DefaultMaxLinks},
	}
	var want bytes.Buffer
	if err := refArchive(meta, runs, frames).WriteBinary(&want); err != nil {
		t.Fatal(err)
	}
	wantHist := want.Bytes()

	for _, mode := range []string{"serial", "concurrent"} {
		t.Run(mode, func(t *testing.T) {
			r := New()
			for _, run := range []string{"a", "b"} {
				if err := r.Bind(run, links[run], nil, testVerdicts, 0, testInterval); err != nil {
					t.Fatal(err)
				}
			}
			record := func(policy string) {
				for i, rec := range byPolicy[policy] {
					if i == len(byPolicy[policy])/2 {
						// Binding the same table again mid-run changes nothing.
						if err := r.Bind(rec.Run, links[rec.Run], nil, testVerdicts, 0, testInterval); err != nil {
							t.Error(err)
						}
					}
					if err := r.Record(rec); err != nil {
						t.Error(err)
					}
				}
			}
			if mode == "serial" {
				for _, policy := range scriptPolicies {
					record(policy)
				}
			} else {
				var wg sync.WaitGroup
				for _, policy := range scriptPolicies {
					wg.Add(1)
					go func(policy string) {
						defer wg.Done()
						record(policy)
					}(policy)
				}
				wg.Wait()
			}

			var buf bytes.Buffer
			if err := r.WriteLog(&buf, meta, Trailer{}); err != nil {
				t.Fatal(err)
			}
			l, err := ReadLog(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(archiveBytes(t, l.History()), wantHist) {
				t.Errorf("history rebuilt from the log diverges from the hand-built reference")
			}
		})
	}
}

// TestRecordAllocsSteadyState: recording a 256-link frame allocates
// nothing per link and nothing per frame beyond its stream's amortized
// growth (a new chunk, the frame sizes' slice): Record hashes the frame
// and encodes it into its stream through a reused scratch buffer.
func TestRecordAllocsSteadyState(t *testing.T) {
	const nLinks = 256
	links := make([]Link, nLinks)
	for i := range links {
		links[i] = Link{Edge: i, Name: fmt.Sprintf("N%d->N%d", i, i+1), Fiber: i / 2}
	}
	r := New()
	if err := r.Bind("", links, nil, testVerdicts, 0, testInterval); err != nil {
		t.Fatal(err)
	}
	rec := RoundRecord{Policy: "dynamic", Links: make([]LinkRecord, nLinks)}
	for i := range rec.Links {
		rec.Links[i] = LinkRecord{LinkIndex: i, SNRdB: 14, CapacityGbps: 200}
	}
	step := func() {
		mustRecord(t, r, rec)
		rec.Round++
	}
	for rec.Round < 8 {
		step()
	}
	got := testing.AllocsPerRun(64, step)
	t.Logf("%.0f allocs per 256-link frame", got)
	if got > 1 {
		t.Fatalf("Record allocates %.0f times per 256-link frame at steady state, want <= 1", got)
	}
}
