package alert

// Sustain-boundary edges and the windowed burn-rate source: the
// sustain counter reaching N exactly on the final round, oscillation
// around a threshold resolving without refiring, and the multi-window
// AND semantics (a short-window burn alone never pages).

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/hist"
)

// histObs builds an Obs with a history store attached to its registry,
// the -hist-out wiring in miniature.
func histObs(t *testing.T) (*obs.Obs, *hist.Store) {
	t.Helper()
	o := obs.New()
	st := hist.New(hist.Options{Tool: "test"})
	o.Metrics.SetHistory(st.Root().Bind(o.Clock))
	return o, st
}

// sloRule is the capacity_below_slo shape with test-friendly numbers:
// a sample is bad below 12.45 dB; burn = bad fraction / 0.1 budget;
// fire when min(12h, 48h) burn ≥ 2 at the 6h round cadence.
func sloRule() Rule {
	return Rule{
		Name:        "capacity_below_slo",
		Metric:      "snr_db",
		Source:      SourceBurnRate,
		SLO:         12.45,
		SLOOp:       OpBelow,
		ShortWindow: 12 * time.Hour,
		LongWindow:  48 * time.Hour,
		Budget:      0.1,
		Op:          OpAbove,
		Threshold:   2,
		Severity:    SeverityCritical,
	}
}

// runRounds drives one gauge through values[r] at round r (6h cadence)
// exactly like the simulation round loop: sim time first, then the
// observation, then evaluation.
func runRounds(o *obs.Obs, e *Engine, g *obs.Gauge, values []float64) {
	const interval = 6 * time.Hour
	for r, v := range values {
		o.SetSimTime(time.Duration(r) * interval)
		g.Set(v)
		e.EvalRound(r)
	}
}

func TestSustainReachedExactlyOnFinalRound(t *testing.T) {
	o := obs.New()
	g := o.Gauge("util", "")
	e := NewEngine(o, Rule{Name: "hot", Metric: "util", Source: SourceValue, Op: OpAbove, Threshold: 0.9, Sustain: 3})

	// Rounds 1-3 healthy, rounds 4-6 breach; round 6 is the final
	// evaluation, so the sustain counter hits 3 exactly as the run ends.
	runRounds(o, e, g, []float64{0, 0.5, 0.5, 0.5, 0.95, 0.96, 0.97})

	fires := eventsNamed(o, "alert.fire")
	if len(fires) != 1 {
		t.Fatalf("got %d fires, want 1", len(fires))
	}
	if fires[0].T != 6*6*time.Hour {
		t.Fatalf("fire stamped at %v, want final round 36h", fires[0].T)
	}
	if resolves := eventsNamed(o, "alert.resolve"); len(resolves) != 0 {
		t.Fatalf("got %d resolves, want 0", len(resolves))
	}
	if act := e.Active(); len(act) != 1 || act[0].Fires != 1 || act[0].Resolves != 0 {
		t.Fatalf("active = %+v, want one record still firing at the end", act)
	}
}

func TestOscillationResolvesWithoutRefire(t *testing.T) {
	o := obs.New()
	g := o.Gauge("util", "")
	e := NewEngine(o, Rule{Name: "hot", Metric: "util", Source: SourceValue, Op: OpAbove, Threshold: 0.9, Sustain: 2})

	// Two sustained breaches fire at round 2; from round 3 on the value
	// oscillates around the threshold, so the first dip below resolves
	// and no later single-round breach re-reaches Sustain 2.
	runRounds(o, e, g, []float64{0, 0.95, 0.96, 0.5, 0.95, 0.5, 0.95, 0.5})

	fires := eventsNamed(o, "alert.fire")
	resolves := eventsNamed(o, "alert.resolve")
	if len(fires) != 1 || len(resolves) != 1 {
		t.Fatalf("got %d fires + %d resolves, want 1 + 1", len(fires), len(resolves))
	}
	if fires[0].T != 2*6*time.Hour || resolves[0].T != 3*6*time.Hour {
		t.Fatalf("fire/resolve at %v/%v, want 12h/18h", fires[0].T, resolves[0].T)
	}
	if act := e.Active(); len(act) != 0 {
		t.Fatalf("active = %+v, want nothing firing at the end", act)
	}
}

func TestBurnRateShortWindowAloneDoesNotFire(t *testing.T) {
	o, _ := histObs(t)
	g := o.Gauge("snr_db", "")
	e := NewEngine(o, sloRule())

	// One bad round (round 8) with the long window fully populated:
	// short burn = (1/2)/0.1 = 5 ≥ 2, but long burn = (1/8)/0.1 =
	// 1.25 < 2 — both windows must burn, so the alert never fires.
	values := make([]float64, 12)
	for i := range values {
		values[i] = 15
	}
	values[8] = 11
	runRounds(o, e, g, values)

	if fires := eventsNamed(o, "alert.fire"); len(fires) != 0 {
		t.Fatalf("got %d fires, want 0 (single bad round must not page)", len(fires))
	}
	if act := e.Active(); len(act) != 0 {
		t.Fatalf("active = %+v, want empty", act)
	}
}

func TestBurnRateFiresAndResolvesOnSustainedDip(t *testing.T) {
	o, _ := histObs(t)
	g := o.Gauge("snr_db", "")
	e := NewEngine(o, sloRule())

	// A §2.3-length event: rounds 8 and 9 bad. At round 8 the long
	// window reads 1.25× budget (no fire); at round 9 short = 10×,
	// long = 2.5× → fires; at round 11 the short window has drained
	// (rounds 10, 11 healthy) → resolves. All deterministic sim times.
	values := make([]float64, 14)
	for i := range values {
		values[i] = 15
	}
	values[8], values[9] = 11, 11
	runRounds(o, e, g, values)

	fires := eventsNamed(o, "alert.fire")
	resolves := eventsNamed(o, "alert.resolve")
	if len(fires) != 1 || len(resolves) != 1 {
		t.Fatalf("got %d fires + %d resolves, want 1 + 1", len(fires), len(resolves))
	}
	if fires[0].T != 9*6*time.Hour {
		t.Fatalf("fire stamped at %v, want 54h (one round after onset)", fires[0].T)
	}
	if resolves[0].T != 11*6*time.Hour {
		t.Fatalf("resolve stamped at %v, want 66h (short window drained)", resolves[0].T)
	}
	// Burn-specific attributes ride on the event.
	attrs := map[string]any{}
	for _, a := range fires[0].Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["source"] != "burn_rate" || attrs["slo"] != 12.45 || attrs["budget"] != 0.1 {
		t.Fatalf("fire attrs = %v, want burn_rate/slo/budget", attrs)
	}
}

func TestBurnRateWithoutHistorySinkNeverEvaluates(t *testing.T) {
	o := obs.New() // no SetHistory
	g := o.Gauge("snr_db", "")
	e := NewEngine(o, sloRule())
	values := []float64{11, 11, 11, 11, 11, 11}
	runRounds(o, e, g, values)
	if fires := eventsNamed(o, "alert.fire"); len(fires) != 0 {
		t.Fatalf("got %d fires, want 0 without a history sink", len(fires))
	}
}
