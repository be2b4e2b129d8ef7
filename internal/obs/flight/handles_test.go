package flight

import (
	"bytes"
	"fmt"
	"reflect"
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
	for i := range rec.Links {
		l := &rec.Links[i]
		if l.LinkIndex < 0 || l.LinkIndex >= len(st.links) || l.LinkIndex >= st.admitted {
			continue
		}
		labels := st.seriesLabels(rec, l.LinkIndex)
		reg.Gauge("wan_link_snr_db",
			"Binding (minimum) SNR across the link's wavelengths this round.",
			labels...).Set(l.SNRdB)
		reg.Gauge("wan_link_capacity_gbps",
			"Configured link capacity after this round's decisions.",
			labels...).Set(l.CapacityGbps)
	}
}

// refAppendFrameHistory is appendFrameHistory before handles, likewise.
func refAppendFrameHistory(sh *hist.Shard, interval time.Duration, st *runState, rec *RoundRecord) {
	t := time.Duration(rec.Round) * interval
	for i := range rec.Links {
		l := &rec.Links[i]
		if l.LinkIndex < 0 || l.LinkIndex >= len(st.links) || l.LinkIndex >= st.admitted {
			continue
		}
		labels := st.seriesLabels(rec, l.LinkIndex)
		sh.Series("wan_link_snr_db", labels, "gauge").AppendAt(t, l.SNRdB)
		sh.Series("wan_link_capacity_gbps", labels, "gauge").AppendAt(t, l.CapacityGbps)
	}
}

// handleScript is the hard cases in one frame sequence: two runs on one
// recorder, one of them over the MaxLinks=3 budget; three policies; and
// frames whose Links are sparse (a link first mentioned rounds after its
// neighbours), repeat a link, and carry out-of-range indexes. byPolicy
// is keyed by scriptPolicies.
func handleScript() (links map[string][]Link, byPolicy map[string][]RoundRecord) {
	links = map[string][]Link{"a": nil, "b": nil}
	for i := 0; i < 5; i++ {
		links["a"] = append(links["a"], Link{Edge: i, Name: fmt.Sprintf("A%d->A%d", i, i+1), Fiber: i / 2})
	}
	for i := 0; i < 4; i++ {
		links["b"] = append(links["b"], Link{Edge: i, Name: fmt.Sprintf("B%d->B%d", i, i+1), Fiber: i})
	}
	byPolicy = make(map[string][]RoundRecord)
	for p, policy := range scriptPolicies {
		for round := 0; round < 12; round++ {
			for _, run := range []string{"a", "b"} {
				rec := RoundRecord{Run: run, Policy: policy, Round: round, OfferedGbps: 100, ShippedGbps: float64(90 - p)}
				for i := range links[run] {
					if (i+round+p)%3 == 0 && round < 9 {
						continue // sparse: link i sits this round out
					}
					rec.Links = append(rec.Links, LinkRecord{
						LinkIndex:    i,
						SNRdB:        10 + float64(i) + float64(round)/4 + float64(p)/16,
						CapacityGbps: float64(100 * (1 + (i+round)%3)),
					})
				}
				rec.Links = append(rec.Links,
					LinkRecord{LinkIndex: -1, SNRdB: 1},
					LinkRecord{LinkIndex: len(links[run]), SNRdB: 2},
					LinkRecord{LinkIndex: 0, SNRdB: 3, CapacityGbps: 7}) // link 0 again: last write wins
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

// TestHandlePathMatchesReregisteringReference drives the script through
// a live recorder — serially, then with one goroutine per policy — and
// through the reference bodies, and requires the live registry, the
// trailer registry, the live history and the history rebuilt from the
// written log to equal the reference's.
func TestHandlePathMatchesReregisteringReference(t *testing.T) {
	links, byPolicy := handleScript()
	meta := Meta{Tool: "flight-test", Seed: 7, Interval: testInterval}
	histOpts := hist.Options{Tool: meta.Tool, Seed: uint64(meta.Seed)}

	// Reference: frames in canonical order through the old bodies.
	refReg, refStore := obs.NewRegistry(), hist.New(histOpts)
	refStore.Root().SetBudget(-1)
	var frames []RoundRecord
	for _, policy := range scriptPolicies {
		frames = append(frames, byPolicy[policy]...)
	}
	sortFrames(frames)
	states := map[string]*runState{
		"a": {links: links["a"], admitted: 3},
		"b": {links: links["b"], admitted: 3},
	}
	droppedCounter(refReg).Add(float64(len(links["a"]) - 3 + len(links["b"]) - 3))
	framesCounter(refReg).Add(float64(len(frames)))
	for i := range frames {
		refEmitSeries(refReg, states[frames[i].Run], &frames[i])
		refAppendFrameHistory(refStore.Root(), testInterval, states[frames[i].Run], &frames[i])
	}
	wantReg, wantHist := refReg.Export(), archiveBytes(t, refStore)

	for _, mode := range []string{"serial", "concurrent"} {
		t.Run(mode, func(t *testing.T) {
			live := hist.New(histOpts)
			r := New(Options{MaxLinks: 3})
			r.SetHistory(live.Root(), testInterval)
			for _, run := range []string{"a", "b"} {
				if err := r.Bind(run, links[run], nil); err != nil {
					t.Fatal(err)
				}
			}
			record := func(policy string) {
				for i, rec := range byPolicy[policy] {
					if i == len(byPolicy[policy])/2 {
						// A second simulation binding the same table mid-run
						// (rwc-experiments does, per figure) changes nothing.
						if err := r.Bind(rec.Run, links[rec.Run], nil); err != nil {
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

			if got := r.Registry().Export(); !reflect.DeepEqual(got, wantReg) {
				t.Errorf("live registry diverges from the re-registering reference:\n got %+v\nwant %+v", got, wantReg)
			}
			if got := r.rebuildSeries(r.Frames()).Export(); !reflect.DeepEqual(got, wantReg) {
				t.Errorf("trailer registry diverges from the re-registering reference:\n got %+v\nwant %+v", got, wantReg)
			}
			if !bytes.Equal(archiveBytes(t, live), wantHist) {
				t.Errorf("live history diverges from the re-registering reference")
			}
			// What ReadLog would return, had the codec not (rightly) refused
			// to decode the script's out-of-range link records.
			l := &Log{Meta: meta, Runs: r.Runs(), Frames: r.Frames()}
			if !bytes.Equal(archiveBytes(t, l.History(0)), wantHist) {
				t.Errorf("history rebuilt from the log diverges from the re-registering reference")
			}
		})
	}
}

// TestRecordAllocsSteadyState: with history attached, a frame over 256
// admitted links costs a handful of allocations — none per link — once
// every handle is resolved and the rings are full. The parent made
// 10 555: four registrations, two label slices and two rendered keys
// per link.
func TestRecordAllocsSteadyState(t *testing.T) {
	const nLinks = 256
	links := make([]Link, nLinks)
	for i := range links {
		links[i] = Link{Edge: i, Name: fmt.Sprintf("N%d->N%d", i, i+1), Fiber: i / 2}
	}
	// Rings 4 deep, no downsample tier: full after the warm-up frames, so
	// no series is still growing its ring while allocations are counted.
	st := hist.New(hist.Options{Retain: 4, DownsampleEvery: -1})
	r := New(Options{})
	r.SetHistory(st.Root(), testInterval)
	if err := r.Bind("", links, nil); err != nil {
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
