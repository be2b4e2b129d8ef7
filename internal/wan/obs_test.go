package wan

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/obs"
)

// runObserved runs one dynamic simulation with a fresh Obs bundle and
// returns both.
func runObserved(t *testing.T, cfg SimConfig) (*Result, *obs.Obs) {
	t.Helper()
	o := obs.New("wan-test")
	cfg.Obs = o
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(PolicyDynamic)
	if err != nil {
		t.Fatal(err)
	}
	return res, o
}

func TestRunOrderEventsMatchRoundChanges(t *testing.T) {
	res, o := runObserved(t, testSimConfig(t))

	// Count wan.order events per round; they must equal the Changes the
	// run reported — the trace is an exact replay of the orders.
	perRound := make(map[int]int)
	total := 0
	for _, ev := range o.Trace.Events() {
		if ev.Name != "wan.order" {
			continue
		}
		var round = -1
		for _, a := range ev.Attrs {
			if a.Key == "round" {
				round = a.Value.(int)
			}
		}
		if round < 0 {
			t.Fatalf("wan.order without round attr: %+v", ev)
		}
		perRound[round]++
		total++
	}
	if total == 0 {
		t.Fatal("dynamic run produced no wan.order events (expected capacity changes)")
	}
	for _, m := range res.Rounds {
		if perRound[m.Round] != m.Changes {
			t.Fatalf("round %d: %d wan.order events for %d changes", m.Round, perRound[m.Round], m.Changes)
		}
	}
	// Event timestamps follow the simulation clock: round × interval.
	for _, ev := range o.Trace.Events() {
		if ev.Name != "wan.order" {
			continue
		}
		for _, a := range ev.Attrs {
			if a.Key == "round" {
				want := time.Duration(a.Value.(int)) * 6 * time.Hour
				if ev.T != want {
					t.Fatalf("wan.order at t=%v, want %v", ev.T, want)
				}
			}
		}
	}
}

func TestRunSameSeedByteIdenticalObservability(t *testing.T) {
	cfg := testSimConfig(t)
	_, oa := runObserved(t, cfg)
	_, ob := runObserved(t, cfg)

	var pa, pb bytes.Buffer
	if err := oa.Metrics.WritePrometheus(&pa); err != nil {
		t.Fatal(err)
	}
	if err := ob.Metrics.WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pa.Bytes(), pb.Bytes()) {
		t.Fatal("same-seed runs produced different Prometheus exposition")
	}
	if pa.Len() == 0 {
		t.Fatal("empty Prometheus exposition")
	}

	var ta, tb bytes.Buffer
	if err := oa.Trace.WriteJSONL(&ta); err != nil {
		t.Fatal(err)
	}
	if err := ob.Trace.WriteJSONL(&tb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Fatal("same-seed runs produced different traces")
	}
	if ta.Len() == 0 {
		t.Fatal("empty trace")
	}
}

func TestRunRecordsRoundMetrics(t *testing.T) {
	res, o := runObserved(t, testSimConfig(t))
	last := res.Rounds[len(res.Rounds)-1]
	pl := obs.L("policy", PolicyDynamic.String())
	if got := o.Gauge("wan_shipped_gbps", "", pl).Value(); got != last.ShippedGbps {
		t.Fatalf("wan_shipped_gbps = %v, want %v (last round)", got, last.ShippedGbps)
	}
	if got := o.Counter("wan_rounds_total", "", pl).Value(); got != float64(len(res.Rounds)) {
		t.Fatalf("wan_rounds_total = %v, want %d", got, len(res.Rounds))
	}
	if got := o.Counter("wan_changes_total", "", pl).Value(); got != float64(res.TotalChanges()) {
		t.Fatalf("wan_changes_total = %v, want %d", got, res.TotalChanges())
	}
	if o.Counter("rwc_work_solves_total", "", pl).Value() <= 0 {
		t.Fatal("rwc_work_solves_total not recorded")
	}
}
