package wan

// Parity tests for the deterministic fan-out (ISSUE 3): the simulation
// must produce byte-identical results, metrics, and traces for every
// worker count, and RunPolicies must reproduce exactly what a serial
// loop over Run leaves behind.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// allPolicies in the order the experiments run them.
var allPolicies = []Policy{PolicyStatic100, PolicyStaticMax, PolicyDynamic}

// newObservedSim builds a simulation with a fresh Obs at one worker
// count.
func newObservedSim(t *testing.T, workers int) (*Simulation, *obs.Obs) {
	t.Helper()
	o := obs.New()
	cfg := testSimConfig(t)
	cfg.Obs = o
	cfg.Workers = workers
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim, o
}

func metricsBytes(t *testing.T, o *obs.Obs) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := o.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// trailer renders o as a flight log trailer.
func trailer(t *testing.T, o *obs.Obs) flight.Trailer {
	t.Helper()
	tr, err := flight.TrailerOf(o)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func traceBytes(t *testing.T, o *obs.Obs) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := o.Trace.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// stripParMetrics drops the fan-out layer's own pool counters, which
// RunPolicies records and a serial loop over Run does not.
func stripParMetrics(m []byte) []byte {
	var out []string
	for _, line := range strings.Split(string(m), "\n") {
		if strings.Contains(line, "rwc_par_tasks_total") {
			continue
		}
		out = append(out, line)
	}
	return []byte(strings.Join(out, "\n"))
}

// TestNewSimulationWorkersParity: the pre-generated SNR table is
// byte-identical for every worker count (rng sources are split before
// dispatch).
func TestNewSimulationWorkersParity(t *testing.T) {
	ref, _ := newObservedSim(t, 1)
	for _, w := range []int{2, 5} {
		sim, _ := newObservedSim(t, w)
		if !reflect.DeepEqual(sim.snrAt, ref.snrAt) {
			t.Fatalf("workers=%d: SNR table differs from workers=1", w)
		}
		if !reflect.DeepEqual(sim.demandsBase, ref.demandsBase) {
			t.Fatalf("workers=%d: base demands differ from workers=1", w)
		}
	}
}

// TestRunPoliciesMatchesSerialRun: results, traces, and (pool counters
// aside) metrics from the concurrent policy fan-out are byte-identical
// to a serial loop over Run — and identical across worker counts.
func TestRunPoliciesMatchesSerialRun(t *testing.T) {
	serialSim, serialObs := newObservedSim(t, 1)
	var serialRes []*Result
	for _, p := range allPolicies {
		r, err := serialSim.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		serialRes = append(serialRes, r)
	}
	serialTrace := traceBytes(t, serialObs)
	serialMetrics := stripParMetrics(metricsBytes(t, serialObs))

	var refMetrics []byte
	for _, w := range []int{1, 3} {
		sim, o := newObservedSim(t, w)
		res, err := sim.RunPolicies(allPolicies)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, serialRes) {
			t.Fatalf("workers=%d: RunPolicies results differ from serial Run loop", w)
		}
		if got := traceBytes(t, o); !bytes.Equal(got, serialTrace) {
			t.Fatalf("workers=%d: trace differs from serial Run loop:\n--- serial\n%s\n--- parallel\n%s", w, serialTrace, got)
		}
		m := metricsBytes(t, o)
		if got := stripParMetrics(m); !bytes.Equal(got, serialMetrics) {
			t.Fatalf("workers=%d: metrics differ from serial Run loop (beyond pool counters)", w)
		}
		// Full metrics — pool counters included — must not depend on the
		// worker count.
		if refMetrics == nil {
			refMetrics = m
		} else if !bytes.Equal(m, refMetrics) {
			t.Fatalf("metrics differ across worker counts:\n--- workers=1\n%s\n--- workers=%d\n%s", refMetrics, w, m)
		}
	}
}
