package controller

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/te"
)

// oscillate drives the SNR of edge 0 around a threshold for several
// rounds and returns the number of capacity-change orders issued.
func oscillate(t *testing.T, c *Controller, n [3]graph.NodeID, rounds int) int {
	t.Helper()
	demands := []te.Demand{{Src: n[0], Dst: n[2], Volume: 80}}
	changes := 0
	for round := 0; round < rounds; round++ {
		snr := 4.5 // degraded: forces 100→50
		if round%2 == 1 {
			snr = 16.0 // recovered: restore 50→100
		}
		if _, err := c.ObserveSNR(0, snr); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ObserveSNR(1, 16); err != nil {
			t.Fatal(err)
		}
		plan, err := c.Step(demands)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range plan.Orders {
			if o.Edge == 0 {
				changes++
			}
		}
	}
	return changes
}

func TestDampingSuppressesFlappingUpgrades(t *testing.T) {
	// Without damping: every oscillation produces a change (downgrade
	// then restore).
	g1, n1 := lineNet(t)
	plain := newController(t, g1, Config{})
	plainChanges := oscillate(t, plain, n1, 12)

	g2, n2 := lineNet(t)
	damped := newController(t, g2, Config{})
	damped.EnableDamping(DampingConfig{
		PenaltyPerChange:  1000,
		SuppressThreshold: 2000,
		ReuseThreshold:    500,
		DecayFactor:       0.9,
	})
	dampedChanges := oscillate(t, damped, n2, 12)

	if dampedChanges >= plainChanges {
		t.Fatalf("damping did not reduce churn: %d vs %d", dampedChanges, plainChanges)
	}
	// The damped link must park in the degraded-but-up state (50 Gbps),
	// not dark: availability is preserved while churn stops.
	cap0, err := damped.Configured(0)
	if err != nil {
		t.Fatal(err)
	}
	if cap0 != 50 {
		t.Fatalf("damped link parked at %v Gbps, want 50", cap0)
	}
	if dampedChanges < 2 {
		t.Fatalf("damping suppressed even the first downgrade: %d changes", dampedChanges)
	}
}

func TestDampingSuppressedReportsState(t *testing.T) {
	g, n := lineNet(t)
	c := newController(t, g, Config{})
	c.EnableDamping(DampingConfig{PenaltyPerChange: 1000, SuppressThreshold: 1500, ReuseThreshold: 100, DecayFactor: 0.5})
	if c.gate.Suppressed(0) {
		t.Fatal("fresh link suppressed")
	}
	oscillate(t, c, n, 4)
	if !c.gate.Suppressed(0) {
		t.Fatal("flapping link not suppressed")
	}
	// Quiet rounds decay the penalty and un-suppress.
	demands := []te.Demand{{Src: n[0], Dst: n[2], Volume: 80}}
	for i := 0; i < 8; i++ {
		if _, err := c.ObserveSNR(0, 16); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ObserveSNR(1, 16); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Step(demands); err != nil {
			t.Fatal(err)
		}
	}
	if c.gate.Suppressed(0) {
		t.Fatal("link still suppressed after decay")
	}
}

func TestSuppressedWithoutDamping(t *testing.T) {
	g, _ := lineNet(t)
	c := newController(t, g, Config{})
	if c.gate.Suppressed(0) {
		t.Fatal("suppressed without damping enabled")
	}
}

func TestChangeBudgetLimitsUpgrades(t *testing.T) {
	// Two parallel 2-hop paths; demand wants upgrades on all four
	// edges, but the budget allows two per round.
	g := graph.New()
	s, a, b, d := g.AddNode("s"), g.AddNode("a"), g.AddNode("b"), g.AddNode("d")
	g.AddEdge(graph.Edge{From: s, To: a, Weight: 1})
	g.AddEdge(graph.Edge{From: a, To: d, Weight: 1})
	g.AddEdge(graph.Edge{From: s, To: b, Weight: 1})
	g.AddEdge(graph.Edge{From: b, To: d, Weight: 1})
	c := newController(t, g, Config{UpgradeHoldObservations: 1})
	c.SetMaxChangesPerRound(2)

	demands := []te.Demand{{Src: s, Dst: d, Volume: 400}}
	for _, e := range g.Edges() {
		if _, err := c.ObserveSNR(e.ID, 17); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := c.Step(demands)
	if err != nil {
		t.Fatal(err)
	}
	upgrades := 0
	for _, o := range plan.Orders {
		if o.Kind == OrderUpgrade {
			upgrades++
		}
	}
	if upgrades > 2 {
		t.Fatalf("budget violated: %d upgrades", upgrades)
	}
	if upgrades == 0 {
		t.Fatal("budget suppressed all upgrades")
	}
	// The restricted re-run must still produce a feasible flow above
	// the no-upgrade baseline (200).
	if plan.Decision.Value <= 200 {
		t.Fatalf("budgeted plan shipped only %v", plan.Decision.Value)
	}
	// Next round the remaining upgrades can proceed.
	for _, e := range g.Edges() {
		if _, err := c.ObserveSNR(e.ID, 17); err != nil {
			t.Fatal(err)
		}
	}
	plan2, err := c.Step(demands)
	if err != nil {
		t.Fatal(err)
	}
	upgrades2 := 0
	for _, o := range plan2.Orders {
		if o.Kind == OrderUpgrade {
			upgrades2++
		}
	}
	if upgrades2 == 0 {
		t.Fatal("second round did not continue the rollout")
	}
	if plan2.Decision.Value <= plan.Decision.Value {
		t.Fatalf("rollout did not increase throughput: %v then %v",
			plan.Decision.Value, plan2.Decision.Value)
	}
}

func TestChangeBudgetUnlimitedByDefault(t *testing.T) {
	g, n := lineNet(t)
	c := newController(t, g, Config{UpgradeHoldObservations: 1})
	for i := 0; i < 1; i++ {
		for _, e := range g.Edges() {
			if _, err := c.ObserveSNR(e.ID, 17); err != nil {
				t.Fatal(err)
			}
		}
	}
	plan, err := c.Step([]te.Demand{{Src: n[0], Dst: n[2], Volume: 200}})
	if err != nil {
		t.Fatal(err)
	}
	upgrades := 0
	for _, o := range plan.Orders {
		if o.Kind == OrderUpgrade {
			upgrades++
		}
	}
	if upgrades != 2 {
		t.Fatalf("default budget limited upgrades: %d", upgrades)
	}
}
