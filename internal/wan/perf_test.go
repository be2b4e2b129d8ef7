package wan

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/hist"
	"repro/internal/obs/perf"
	"repro/internal/te"
)

// runArtifacts captures every deterministic artifact of one full
// multi-policy run: metrics exposition, trace JSONL, history archive,
// and flight log.
type runArtifacts struct {
	metrics, trace, hist, flight []byte
}

// runWithPerf runs the standard test simulation with obs, history, and
// flight all attached, plus the given perf recorder (nil = perf off),
// and returns the deterministic artifacts.
func runWithPerf(t *testing.T, rec *perf.Recorder) runArtifacts {
	t.Helper()
	cfg := testSimConfig(t)
	o := obs.New()
	cfg.Obs = o
	st := hist.New(hist.Options{Tool: "wan-test", Seed: cfg.Seed})
	o.Metrics.SetHistory(st.Root().Bind(o.Clock))
	fr := flight.New()
	cfg.Flight = fr
	cfg.Perf = rec
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunPolicies([]Policy{PolicyStatic100, PolicyStaticMax, PolicyDynamic}); err != nil {
		t.Fatal(err)
	}
	var art runArtifacts
	art.metrics = metricsBytes(t, o)
	art.trace = traceBytes(t, o)
	var hb bytes.Buffer
	if err := st.Archive().WriteBinary(&hb); err != nil {
		t.Fatal(err)
	}
	art.hist = hb.Bytes()
	var fb bytes.Buffer
	meta := flight.Meta{Tool: "wan-test", Seed: cfg.Seed}
	if err := fr.WriteLog(&fb, meta, o); err != nil {
		t.Fatal(err)
	}
	art.flight = fb.Bytes()
	return art
}

// TestPerfOnOffArtifactsByteIdentical is the segregation acceptance:
// attaching a perf recorder must leave every deterministic artifact —
// metrics, trace, history, flight — byte-identical to a run
// without one, while the recorder itself holds every duration the run
// measured: SNR pre-generation once, one sample per round per policy.
func TestPerfOnOffArtifactsByteIdentical(t *testing.T) {
	off := runWithPerf(t, nil)
	rec := perf.New("wan-test")
	on := runWithPerf(t, rec)
	for _, c := range []struct {
		name    string
		off, on []byte
	}{
		{"metrics", off.metrics, on.metrics},
		{"trace", off.trace, on.trace},
		{"hist", off.hist, on.hist},
		{"flight", off.flight, on.flight},
	} {
		if !bytes.Equal(c.off, c.on) {
			t.Errorf("%s artifact differs between perf-off and perf-on runs", c.name)
		}
	}
	rounds := int64(testSimConfig(t).Rounds)
	want := map[string]int64{
		"wan.snr":               1,
		"wan.round/static-100G": rounds,
		"wan.round/static-max":  rounds,
		"wan.round/dynamic":     rounds,
	}
	got := make(map[string]int64)
	for _, p := range rec.Snapshot(nil).Phases {
		got[p.Name] = p.Count
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("perf phase counts = %v, want %v", got, want)
	}
}

// workLines extracts the rwc_work_* exposition lines (values included)
// in their canonical order.
func workLines(metrics []byte) string {
	var out []string
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "rwc_work_") {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// runWorkLines runs a multi-policy simulation at the given worker
// count and returns its rwc_work_* exposition slice.
func runWorkLines(t *testing.T, cfg SimConfig, workers int) string {
	t.Helper()
	cfg.Workers = workers
	o := obs.New()
	cfg.Obs = o
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunPolicies([]Policy{PolicyStatic100, PolicyStaticMax, PolicyDynamic}); err != nil {
		t.Fatal(err)
	}
	return workLines(metricsBytes(t, o))
}

// TestWorkCountersByteIdenticalAcrossWorkers: the work counters are
// exact integers derived from solve order alone, so the exposition
// slice must match byte for byte between a serial and a fanned-out
// run — on Abilene here and at paper scale below.
func TestWorkCountersByteIdenticalAcrossWorkers(t *testing.T) {
	cfg := testSimConfig(t)
	w1 := runWorkLines(t, cfg, 1)
	w4 := runWorkLines(t, cfg, 4)
	if w1 != w4 {
		t.Fatalf("rwc_work_* differ between workers 1 and 4:\n--- w1\n%s\n--- w4\n%s", w1, w4)
	}
	// Same under -te kpath and -te maxconcurrent, whose pops and
	// relaxations come from the path kernel — Yen's searches and the
	// Garg–Könemann steps' per-source trees — rather than the SSP solver.
	seen := []string{w1}
	for _, alg := range []te.Algorithm{te.KPath{}, te.MaxConcurrent{}} {
		cfg.TE = alg
		a1 := runWorkLines(t, cfg, 1)
		a4 := runWorkLines(t, cfg, 4)
		if a1 != a4 {
			t.Fatalf("%s rwc_work_* differ between workers 1 and 4:\n--- w1\n%s\n--- w4\n%s", alg.Name(), a1, a4)
		}
		if !strings.Contains(a1, "rwc_work_dijkstra_pops_total") {
			t.Fatalf("%s work exposition lacks pops:\n%s", alg.Name(), a1)
		}
		for _, other := range seen {
			if a1 == other {
				t.Fatalf("%s work exposition is another allocator's:\n%s", alg.Name(), a1)
			}
		}
		seen = append(seen, a1)
	}
	// The instrumented stages all reported: solver, Dijkstra inner
	// loop, and the dynamic policy's augmenter.
	for _, want := range []string{
		"rwc_work_solves_total",
		"rwc_work_dijkstra_pops_total",
		"rwc_work_arc_relaxations_total",
		"rwc_work_augmenting_paths_total",
		"rwc_work_ssp_phases_total",
		"rwc_work_augmenter_refresh_edges_total",
		"rwc_work_augmenter_translate_scans_total",
	} {
		if !strings.Contains(w1, want) {
			t.Fatalf("work exposition missing %s:\n%s", want, w1)
		}
	}
}

// TestWorkCountersByteIdenticalAcrossWorkersContinental200 pins the
// same invariant at the paper's continental scale (200 nodes), scaled
// down in rounds and demand count to stay test-sized.
func TestWorkCountersByteIdenticalAcrossWorkersContinental200(t *testing.T) {
	if testing.Short() {
		t.Skip("continental:200 run in -short mode")
	}
	net, err := ParseTopology("continental:200", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig{
		Net:            net,
		Rounds:         2,
		Seed:           41,
		DemandFraction: 0.8,
		DemandSigma:    0.1,
		MaxDemands:     200,
		LengthAware:    true,
	}
	for _, alg := range []te.Algorithm{te.Greedy{}, te.KPath{}, te.MaxConcurrent{}} {
		cfg.TE = alg
		w1 := runWorkLines(t, cfg, 1)
		w4 := runWorkLines(t, cfg, 4)
		if w1 != w4 {
			t.Fatalf("%s: continental rwc_work_* differ between workers 1 and 4:\n--- w1\n%s\n--- w4\n%s", alg.Name(), w1, w4)
		}
		if !strings.Contains(w1, "rwc_work_dijkstra_pops_total") {
			t.Fatalf("%s: continental work exposition missing pops:\n%s", alg.Name(), w1)
		}
		if _, greedy := alg.(te.Greedy); !greedy {
			continue
		}
		// The counters above were equal WITH the unreachable-sink memo
		// at work: a routed demand runs at least one phase, so fewer
		// phases than solves means some solves ran none. (This implies
		// Phases < Solves + Augmentations, which holds without any skip
		// whenever a demand is satisfied in full.)
		totals, err := obs.PromTotals(strings.NewReader(w1))
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []string{"static-100G", "static-max", "dynamic"} {
			solves := totals[`rwc_work_solves_total{policy="`+policy+`"}`]
			phases := totals[`rwc_work_ssp_phases_total{policy="`+policy+`"}`]
			if solves == 0 || phases >= solves {
				t.Fatalf("%s: %v phases for %v solves: no demand was answered by the memo", policy, phases, solves)
			}
		}
	}
}
