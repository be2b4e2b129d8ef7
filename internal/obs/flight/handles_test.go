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

// refEmitSeries is emitSeries as it was before runState held handles:
// both gauges re-registered, label slice and all, for every link of
// every frame. The handle path must leave the registry exactly as this.
func refEmitSeries(reg *obs.Registry, st *runState, rec *RoundRecord) {
	for i := range rec.Links[:st.admitted] {
		l := &rec.Links[i]
		labels := st.seriesLabels(rec, i)
		reg.Gauge("wan_link_snr_db",
			"Binding (minimum) SNR across the link's wavelengths this round.",
			labels...).Set(l.SNRdB)
		reg.Gauge("wan_link_capacity_gbps",
			"Configured link capacity after this round's decisions.",
			labels...).Set(l.CapacityGbps)
	}
}

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

// exposition renders reg's Prometheus text, which holds every series
// value exactly.
func exposition(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// refArchive is the history the script must leave: every admitted link
// record of the canonically sorted frames, in order, as one sample per
// gauge at round × testInterval — built by hand, not through the store.
func refArchive(meta Meta, states map[string]*runState, frames []RoundRecord) *hist.Archive {
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
		rec, st := &frames[i], states[frames[i].Run]
		t := time.Duration(rec.Round) * testInterval
		for i, l := range rec.Links[:st.admitted] {
			labels := st.seriesLabels(rec, i) // link, policy, run: already in key order
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
// a live recorder — serially, then with one goroutine per policy — and
// requires the live registry to equal the re-registering reference's,
// and the history rebuilt from the written log to serialize to the
// hand-built reference archive.
func TestHandlePathMatchesReregisteringReference(t *testing.T) {
	links, byPolicy := handleScript()
	meta := Meta{Tool: "flight-test", Seed: 7}

	// Reference: frames in canonical order through the old body.
	refReg := obs.NewRegistry()
	var frames []RoundRecord
	for _, policy := range scriptPolicies {
		frames = append(frames, byPolicy[policy]...)
	}
	sortFrames(frames)
	states := map[string]*runState{
		"a": {links: links["a"], admitted: DefaultMaxLinks},
		"b": {links: links["b"], admitted: DefaultMaxLinks},
	}
	refReg.Counter("obs_flight_links_dropped_total",
		"Links denied labeled flight series by the cardinality budget (flight.DefaultMaxLinks).").Add(float64(len(links["a"]) - DefaultMaxLinks + len(links["b"]) - DefaultMaxLinks))
	refReg.Counter("obs_flight_frames_total", "Round records captured by the flight recorder.").Add(float64(len(frames)))
	for i := range frames {
		refEmitSeries(refReg, states[frames[i].Run], &frames[i])
	}
	wantReg := exposition(t, refReg)
	var want bytes.Buffer
	if err := refArchive(meta, states, frames).WriteBinary(&want); err != nil {
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
						// A second simulation binding the same table mid-run
						// (rwc-experiments does, per figure) changes nothing.
						if err := r.Bind(rec.Run, links[rec.Run], nil, testVerdicts, 0, testInterval); err != nil {
							t.Error(err)
						}
					}
					r.Record(rec)
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

			if got := exposition(t, r.Registry()); got != wantReg {
				t.Errorf("live registry diverges from the re-registering reference:\n got %s\nwant %s", got, wantReg)
			}
			var buf bytes.Buffer
			if err := r.WriteLog(&buf, meta, nil); err != nil {
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

// TestRecordAllocsSteadyState: a frame over 256 admitted links costs a
// handful of allocations — none per link — once every handle is
// resolved. Before handles, a recorder with history attached made
// 10 555: four registrations, two label slices and two rendered keys
// per link.
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
		r.Record(rec)
		rec.Round++
	}
	for rec.Round < 8 {
		step()
	}
	got := testing.AllocsPerRun(64, step)
	t.Logf("%.0f allocs per 256-link frame", got)
	if got > 32 {
		t.Fatalf("Record allocates %.0f times per 256-link frame at steady state, want <= 32", got)
	}
}
