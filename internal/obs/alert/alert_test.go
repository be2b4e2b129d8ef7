package alert

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

// evalAt advances sim time to round × interval and evaluates, the same
// call pattern the simulation round loop uses.
func evalAt(o *obs.Obs, e *Engine, round int, interval time.Duration) {
	o.SetSimTime(time.Duration(round) * interval)
	e.EvalRound(round)
}

func eventsNamed(o *obs.Obs, name string) []obs.Event {
	var out []obs.Event
	for _, ev := range o.Trace.Events() {
		if ev.Name == name {
			out = append(out, ev)
		}
	}
	return out
}

func TestNilEngineIsSafe(t *testing.T) {
	var e *Engine
	e.EvalRound(1)
	if e.Active() != nil {
		t.Fatal("nil engine must report nothing")
	}
	if NewEngine(nil, Rule{Name: "r", Metric: "m"}) != nil {
		t.Fatal("nil obs must yield nil engine")
	}
	if NewEngine(&obs.Obs{}, Rule{Name: "r", Metric: "m"}) != nil {
		t.Fatal("obs without metrics must yield nil engine")
	}
	if NewEngine(obs.New()) != nil {
		t.Fatal("empty rule set must yield nil engine")
	}
}

func TestValueRuleFiresAndResolves(t *testing.T) {
	o := obs.New()
	g := o.Gauge("util", "link utilization")
	e := NewEngine(o, Rule{Name: "hot", Metric: "util", Source: SourceValue, Op: OpAbove, Threshold: 0.9})

	const round = time.Hour
	g.Set(0.5)
	evalAt(o, e, 1, round)
	g.Set(0.95)
	evalAt(o, e, 2, round)
	g.Set(0.97)
	evalAt(o, e, 3, round) // still breaching: no second fire
	g.Set(0.4)
	evalAt(o, e, 4, round)

	fires := eventsNamed(o, "alert.fire")
	resolves := eventsNamed(o, "alert.resolve")
	if len(fires) != 1 || len(resolves) != 1 {
		t.Fatalf("want 1 fire + 1 resolve, got %d + %d", len(fires), len(resolves))
	}
	if got := fires[0].T; got != 2*round {
		t.Fatalf("fire stamped at %v, want %v", got, 2*round)
	}
	if got := resolves[0].T; got != 4*round {
		t.Fatalf("resolve stamped at %v, want %v", got, 4*round)
	}
	totals := o.Metrics.Totals()
	if totals[`alerts_fired_total{rule="hot"}`] != 1 {
		t.Fatalf("alerts_fired_total = %v", totals[`alerts_fired_total{rule="hot"}`])
	}
	if totals[`alerts_resolved_total{rule="hot"}`] != 1 {
		t.Fatalf("alerts_resolved_total = %v", totals[`alerts_resolved_total{rule="hot"}`])
	}
	if totals[`alerts_active{rule="hot"}`] != 0 {
		t.Fatalf("alerts_active = %v after resolve", totals[`alerts_active{rule="hot"}`])
	}
}

func TestSustainSuppressesBlips(t *testing.T) {
	o := obs.New()
	g := o.Gauge("v", "v")
	e := NewEngine(o, Rule{Name: "sustained", Metric: "v", Op: OpAbove, Threshold: 10, Sustain: 3})

	// One- and two-round blips never page.
	for round, v := range []float64{20, 1, 20, 20, 1} {
		g.Set(v)
		evalAt(o, e, round+1, time.Hour)
	}
	if n := len(eventsNamed(o, "alert.fire")); n != 0 {
		t.Fatalf("blips under sustain fired %d times", n)
	}
	// Third consecutive breach fires.
	for round := 6; round <= 8; round++ {
		g.Set(20)
		evalAt(o, e, round, time.Hour)
	}
	fires := eventsNamed(o, "alert.fire")
	if len(fires) != 1 {
		t.Fatalf("want exactly 1 fire, got %d", len(fires))
	}
	if fires[0].T != 8*time.Hour {
		t.Fatalf("fire at %v, want %v (third consecutive breach)", fires[0].T, 8*time.Hour)
	}
}

func TestSNRDipRuleFiresOnceWithDeterministicStamp(t *testing.T) {
	// The §2.3 scenario: SNR sits at 18 dB, dips to 14 dB for one
	// round (a 4 dB dip ≥ the 3 dB threshold), recovers. Exactly one
	// fire, stamped with the dip round's simulation time.
	o := obs.New()
	g := o.Gauge("wan_snr_min_db", "min snr", obs.L("policy", "dynamic"))
	rules := DefaultWANRules()
	e := NewEngine(o, rules...)

	const interval = 15 * time.Minute
	profile := []float64{18, 18, 18, 14, 18, 18}
	for i, snr := range profile {
		g.Set(snr)
		evalAt(o, e, i+1, interval)
	}
	fires := eventsNamed(o, "alert.fire")
	if len(fires) != 1 {
		t.Fatalf("want exactly one snr_dip fire, got %d: %+v", len(fires), fires)
	}
	if want := 4 * interval; fires[0].T != want {
		t.Fatalf("dip fire stamped %v, want %v", fires[0].T, want)
	}
	attrs := map[string]any{}
	for _, a := range fires[0].Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["rule"] != "snr_dip" || attrs["severity"] != string(SeverityCritical) {
		t.Fatalf("unexpected fire attrs: %v", attrs)
	}
	if attrs["value"] != 4.0 {
		t.Fatalf("dip depth attr = %v, want 4", attrs["value"])
	}
	resolves := eventsNamed(o, "alert.resolve")
	if len(resolves) != 1 || resolves[0].T != 5*interval {
		t.Fatalf("dip must resolve on recovery round: %+v", resolves)
	}
}

func TestDipBelowThresholdStaysQuiet(t *testing.T) {
	o := obs.New()
	g := o.Gauge("wan_snr_min_db", "min snr")
	e := NewEngine(o, DefaultWANRules()...)
	for i, snr := range []float64{18, 17, 16.5, 15.1, 18} { // max dip 2.9 dB < 3
		g.Set(snr)
		evalAt(o, e, i+1, time.Hour)
	}
	if n := len(eventsNamed(o, "alert.fire")); n != 0 {
		t.Fatalf("sub-threshold dip fired %d times", n)
	}
}

func TestHistP99Rule(t *testing.T) {
	o := obs.New()
	h := o.Histogram("work", "w", []float64{10, 100, 1000})
	e := NewEngine(o, Rule{Name: "slow", Metric: "work", Source: SourceHistP99, Op: OpAbove, Threshold: 500})

	// 100 observations in the ≤10 bucket: p99 = 10, quiet.
	for i := 0; i < 100; i++ {
		h.Observe(5)
	}
	evalAt(o, e, 1, time.Hour)
	if len(eventsNamed(o, "alert.fire")) != 0 {
		t.Fatal("p99=10 must not breach threshold 500")
	}
	// Push >1% of mass past the last finite bucket: p99 → +Inf, fires.
	for i := 0; i < 5; i++ {
		h.Observe(5000)
	}
	evalAt(o, e, 2, time.Hour)
	fires := eventsNamed(o, "alert.fire")
	if len(fires) != 1 {
		t.Fatalf("want 1 fire, got %d", len(fires))
	}
	for _, a := range fires[0].Attrs {
		if a.Key == "value" {
			if v, ok := a.Value.(float64); !ok || !math.IsInf(v, 1) {
				t.Fatalf("p99 past last bucket should be +Inf, got %v", a.Value)
			}
		}
	}
}

func TestHistQuantileBucketWalk(t *testing.T) {
	snap := obs.SeriesSnapshot{
		Type:    "histogram",
		Count:   100,
		Upper:   []float64{10, 100, 1000},
		Buckets: []uint64{50, 40, 9}, // 1 observation beyond 1000
	}
	// rank = ceil(0.99*100) = 99 → cumulative 50,90,99 → bucket 1000.
	if v, ok := histQuantile(snap, 0.99); !ok || v != 1000 {
		t.Fatalf("p99 = %v, %v; want 1000", v, ok)
	}
	// p50: rank 50 → first bucket.
	if v, ok := histQuantile(snap, 0.50); !ok || v != 10 {
		t.Fatalf("p50 = %v, %v; want 10", v, ok)
	}
	// Rank past every finite bucket → +Inf.
	snap.Buckets = []uint64{50, 40, 0}
	if v, ok := histQuantile(snap, 0.99); !ok || !math.IsInf(v, 1) {
		t.Fatalf("p99 with tail mass = %v, %v; want +Inf", v, ok)
	}
	if _, ok := histQuantile(obs.SeriesSnapshot{Type: "histogram"}, 0.99); ok {
		t.Fatal("empty histogram must not evaluate")
	}
}

func TestPerSeriesIndependence(t *testing.T) {
	o := obs.New()
	a := o.Gauge("v", "v", obs.L("link", "a"))
	b := o.Gauge("v", "v", obs.L("link", "b"))
	e := NewEngine(o, Rule{Name: "r", Metric: "v", Op: OpAbove, Threshold: 10})

	a.Set(20)
	b.Set(1)
	evalAt(o, e, 1, time.Hour)
	fires := eventsNamed(o, "alert.fire")
	if len(fires) != 1 {
		t.Fatalf("want 1 fire (link a only), got %d", len(fires))
	}
	var series string
	for _, at := range fires[0].Attrs {
		if at.Key == "series" {
			series = at.Value.(string)
		}
	}
	if series != `link="a"` {
		t.Fatalf("fire attributed to series %q, want link=\"a\"", series)
	}
	active := e.Active()
	if len(active) != 1 || active[0].Series != `link="a"` {
		t.Fatalf("active = %+v", active)
	}
}

// TestActiveRecordsFireHistory: a fire, a resolve and a second fire
// are three trace events at their rounds' simulation times, and the
// still-firing series' record (what /sliz shows) counts both fires.
func TestActiveRecordsFireHistory(t *testing.T) {
	o := obs.New()
	g := o.Gauge("v", "v")
	e := NewEngine(o, Rule{Name: "r", Metric: "v", Op: OpAbove, Threshold: 10, Severity: SeverityCritical})

	const round = 30 * time.Minute
	for i, v := range []float64{20, 1, 20, 20} { // fire, resolve, fire (still active)
		g.Set(v)
		evalAt(o, e, i+1, round)
	}

	var got []string
	for _, ev := range o.Trace.Events() {
		attr := map[string]any{}
		for _, at := range ev.Attrs {
			attr[at.Key] = at.Value
		}
		if attr["rule"] != "r" || attr["severity"] != string(SeverityCritical) {
			t.Fatalf("%s attrs = %v", ev.Name, attr)
		}
		got = append(got, fmt.Sprintf("%s@%v", ev.Name, ev.T))
	}
	wantEvents := []string{"alert.fire@30m0s", "alert.resolve@1h0m0s", "alert.fire@1h30m0s"}
	if !reflect.DeepEqual(got, wantEvents) {
		t.Fatalf("events = %v, want %v", got, wantEvents)
	}
	active := e.Active()
	if len(active) != 1 {
		t.Fatalf("want 1 active record, got %d", len(active))
	}
	want := AlertRecord{
		Rule:        "r",
		Severity:    string(SeverityCritical),
		Fires:       2,
		Resolves:    1,
		FirstFireNs: (1 * round).Nanoseconds(),
		LastFireNs:  (3 * round).Nanoseconds(),
		ActiveAtEnd: true,
	}
	if !reflect.DeepEqual(active[0], want) {
		t.Fatalf("active record = %+v, want %+v", active[0], want)
	}
}

func TestEngineIsDeterministic(t *testing.T) {
	run := func() []byte {
		o := obs.New()
		ga := o.Gauge("wan_snr_min_db", "s", obs.L("link", "a"))
		gb := o.Gauge("wan_snr_min_db", "s", obs.L("link", "b"))
		flap := o.Gauge("wan_flap_rate", "f")
		e := NewEngine(o, DefaultWANRules()...)
		const interval = 15 * time.Minute
		for r := 1; r <= 12; r++ {
			ga.Set(18 - 5*float64(r%3))
			gb.Set(20 - float64(r%2))
			flap.Set(float64(r%4) / 4)
			evalAt(o, e, r, interval)
		}
		var buf bytes.Buffer
		if err := o.Trace.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		for _, rec := range e.Active() {
			buf.WriteString(rec.Rule)
			buf.WriteString(rec.Series)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("two identical runs produced different alert streams")
	}
}

// TestSeriesAppearingMidRunKeepsPerSeriesState: the engine finds a
// series' state by its position in the family while the family's size
// is unchanged. A series that registers mid-run and sorts before the
// existing one shifts every position; each series must keep its own
// running maximum and sustain count across the shift, and the newcomer
// must start from nothing.
func TestSeriesAppearingMidRunKeepsPerSeriesState(t *testing.T) {
	o := obs.New()
	e := NewEngine(o,
		Rule{Name: "dip", Metric: "snr", Source: SourceDipFromMax, Op: OpAbove, Threshold: 3},
		Rule{Name: "low", Metric: "snr", Source: SourceValue, Op: OpBelow, Threshold: 11, Sustain: 2})
	m := o.Gauge("snr", "h", obs.L("policy", "m"))
	m.Set(20)
	evalAt(o, e, 1, time.Hour)
	m.Set(10) // dip fires for m; low has breached once
	evalAt(o, e, 2, time.Hour)

	a := o.Gauge("snr", "h", obs.L("policy", "a")) // sorts first: m moves to position 1
	z := o.Gauge("snr", "h", obs.L("policy", "z"))
	a.Set(10) // no history: a reading at its own maximum is no dip; low breaches once
	z.Set(30)
	m.Set(10) // low's second consecutive breach for m fires it
	evalAt(o, e, 3, time.Hour)
	m.Set(19) // 1 dB under m's own maximum of 20: dip resolves
	a.Set(12)
	evalAt(o, e, 4, time.Hour)

	type transition struct {
		name, rule, series string
		round              int
	}
	var got []transition
	for _, ev := range o.Trace.Events() {
		tr := transition{name: ev.Name}
		for _, at := range ev.Attrs {
			switch at.Key {
			case "rule":
				tr.rule = at.Value.(string)
			case "series":
				tr.series = at.Value.(string)
			case "round":
				tr.round = at.Value.(int)
			}
		}
		got = append(got, tr)
	}
	want := []transition{
		{"alert.fire", "dip", `policy="m"`, 2},
		{"alert.fire", "low", `policy="m"`, 3},
		{"alert.resolve", "dip", `policy="m"`, 4},
		{"alert.resolve", "low", `policy="m"`, 4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("transitions:\n got %+v\nwant %+v", got, want)
	}
	if act := e.Active(); len(act) != 0 {
		t.Fatalf("active = %+v, want every alert resolved", act)
	}
}

func TestDefaultWANRulesShape(t *testing.T) {
	rules := DefaultWANRules()
	byName := map[string]Rule{}
	for _, r := range rules {
		byName[r.Name] = r
	}
	dip, ok := byName["snr_dip"]
	if !ok || dip.Metric != "wan_snr_min_db" || dip.Source != SourceDipFromMax ||
		dip.Threshold != 3 || dip.Severity != SeverityCritical {
		t.Fatalf("snr_dip rule malformed: %+v", dip)
	}
	flap, ok := byName["capacity_flap_rate"]
	if !ok || flap.Metric != "wan_flap_rate" || flap.Source != SourceValue || flap.Sustain < 2 {
		t.Fatalf("capacity_flap_rate rule malformed: %+v", flap)
	}
	work, ok := byName["te_solver_work_p99"]
	if !ok || work.Metric != "wan_te_solve_work" || work.Source != SourceHistP99 {
		t.Fatalf("te_solver_work_p99 rule malformed: %+v", work)
	}
}
