package controller

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/te"
)

// orderEvents extracts the controller.order trace events in emission
// order.
func orderEvents(o *obs.Obs) []obs.Event {
	var out []obs.Event
	for _, ev := range o.Trace.Events() {
		if ev.Name == "controller.order" {
			out = append(out, ev)
		}
	}
	return out
}

// attr fetches one attribute value from an event (nil when absent).
func attr(ev obs.Event, key string) any {
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

func TestStepTraceOrdersMatchPlan(t *testing.T) {
	g, n := lineNet(t)
	o := obs.New()
	c := newController(t, g, Config{Obs: o, UpgradeHoldObservations: 1})
	demands := []te.Demand{{Src: n[0], Dst: n[2], Volume: 180}}

	// Degrade edge 0, keep edge 1 upgradeable: the plan mixes a forced
	// downgrade with a (possible) TE upgrade, and every order must have
	// a matching trace event in the same sequence.
	if _, err := c.ObserveSNR(0, 4.5); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ObserveSNR(1, 22); err != nil {
		t.Fatal(err)
	}
	plan, err := c.Step(demands)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Orders) == 0 {
		t.Fatal("expected at least one order")
	}
	evs := orderEvents(o)
	if len(evs) != len(plan.Orders) {
		t.Fatalf("got %d controller.order events for %d orders", len(evs), len(plan.Orders))
	}
	for i, ord := range plan.Orders {
		ev := evs[i]
		if got := attr(ev, "edge"); got != int(ord.Edge) {
			t.Fatalf("event %d edge = %v, want %d", i, got, int(ord.Edge))
		}
		if got := attr(ev, "kind"); got != ord.Kind.String() {
			t.Fatalf("event %d kind = %v, want %s", i, got, ord.Kind)
		}
		if got := attr(ev, "from_gbps"); got != float64(ord.From) {
			t.Fatalf("event %d from = %v, want %v", i, got, float64(ord.From))
		}
		if got := attr(ev, "to_gbps"); got != float64(ord.To) {
			t.Fatalf("event %d to = %v, want %v", i, got, float64(ord.To))
		}
	}
	// The per-kind counter totals agree with the plan, too.
	var forced, upgrades int
	for _, ord := range plan.Orders {
		switch ord.Kind {
		case OrderForcedDowngrade:
			forced++
		default:
			upgrades++
		}
	}
	if forced > 0 {
		got := o.Counter("controller_orders_total", "", obs.L("kind", "forced-downgrade")).Value()
		if got != float64(forced) {
			t.Fatalf("forced-downgrade counter = %v, want %d", got, forced)
		}
	}
	if upgrades > 0 {
		got := o.Counter("controller_orders_total", "", obs.L("kind", "upgrade")).Value()
		if got != float64(upgrades) {
			t.Fatalf("upgrade counter = %v, want %d", got, upgrades)
		}
	}
}

func TestHysteresisQualifiedEventFiresOnceAtThreshold(t *testing.T) {
	g, _ := lineNet(t)
	o := obs.New()
	c := newController(t, g, Config{Obs: o, UpgradeHoldObservations: 3})
	for i := 0; i < 5; i++ {
		if _, err := c.ObserveSNR(0, 22); err != nil {
			t.Fatal(err)
		}
	}
	var qualified int
	for _, ev := range o.Trace.Events() {
		if ev.Name == "controller.hysteresis_qualified" {
			qualified++
		}
	}
	if qualified != 1 {
		t.Fatalf("hysteresis_qualified events = %d, want exactly 1", qualified)
	}
	// A dip after qualification records the reset transition: 8 dB no
	// longer supports the 125G rung (8.5 + 0.5 margin) but stays above
	// the configured 100G downgrade threshold (6.5 + 0.5).
	if _, err := c.ObserveSNR(0, 8); err != nil {
		t.Fatal(err)
	}
	var resets int
	for _, ev := range o.Trace.Events() {
		if ev.Name == "controller.hysteresis_reset" {
			resets++
		}
	}
	if resets != 1 {
		t.Fatalf("hysteresis_reset events = %d, want 1", resets)
	}
}

func TestConsistentStepEmitsPhaseEvents(t *testing.T) {
	g, n := lineNet(t)
	o := obs.New()
	c := newController(t, g, Config{Obs: o})
	demands := []te.Demand{{Src: n[0], Dst: n[2], Volume: 80}}
	if _, err := c.ObserveSNR(0, 4.5); err != nil {
		t.Fatal(err)
	}
	cp, err := c.ConsistentStep(demands)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.UpdatedEdges) == 0 {
		t.Fatal("expected a re-modulated link")
	}
	want := []string{
		"controller.consistent.reroute",
		"controller.consistent.reconfigure",
		"controller.consistent.converge",
	}
	seen := make(map[string]int)
	for _, ev := range o.Trace.Events() {
		seen[ev.Name]++
	}
	for _, name := range want {
		if seen[name] != 1 {
			t.Fatalf("%s events = %d, want 1", name, seen[name])
		}
	}
	if o.Counter("controller_consistent_updates_total", "").Value() != 1 {
		t.Fatalf("consistent updates counter = %v", o.Counter("controller_consistent_updates_total", "").Value())
	}
}

func TestNilObsIsFree(t *testing.T) {
	// The zero Config (nil Obs) must run every path without panicking —
	// the disabled layer is pure nil checks.
	g, n := lineNet(t)
	c := newController(t, g, Config{})
	if _, err := c.ObserveSNR(0, 4.5); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ConsistentStep([]te.Demand{{Src: n[0], Dst: n[2], Volume: 80}}); err != nil {
		t.Fatal(err)
	}
}
