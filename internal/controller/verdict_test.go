package controller

import (
	"testing"

	"repro/internal/gate"
	"repro/internal/graph"
	"repro/internal/te"
)

// stepVerdicts runs one Step and returns the verdicts, failing the test
// on error or on verdicts not covering every edge.
func stepVerdicts(t *testing.T, c *Controller, demands []te.Demand) []gate.Verdict {
	t.Helper()
	plan, err := c.Step(demands)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Verdicts) != c.g.NumEdges() {
		t.Fatalf("verdicts cover %d of %d edges", len(plan.Verdicts), c.g.NumEdges())
	}
	return plan.Verdicts
}

func TestVerdictsSteadyWithoutHeadroom(t *testing.T) {
	g, n := lineNet(t)
	c := newController(t, g, Config{UpgradeHoldObservations: 1})
	// SNR supports exactly the configured 100G rung: no headroom.
	for _, e := range g.Edges() {
		if _, err := c.ObserveSNR(e.ID, 7.5); err != nil {
			t.Fatal(err)
		}
	}
	v := stepVerdicts(t, c, []te.Demand{{Src: n[0], Dst: n[2], Volume: 40}})
	for id, got := range v {
		if got != gate.VerdictSteady {
			t.Errorf("edge %d verdict = %v, want steady", int(id), got)
		}
	}
}

func TestVerdictsForcedDowngradeAndHysteresis(t *testing.T) {
	g, n := lineNet(t)
	c := newController(t, g, Config{UpgradeHoldObservations: 3})
	demands := []te.Demand{{Src: n[0], Dst: n[2], Volume: 180}}

	// Edge 0 collapses; edge 1 sees upgrade-grade SNR for the first time.
	if _, err := c.ObserveSNR(0, 4.5); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ObserveSNR(1, 17); err != nil {
		t.Fatal(err)
	}
	v := stepVerdicts(t, c, demands)
	if v[0] != gate.VerdictForcedDowngrade {
		t.Errorf("edge 0 verdict = %v, want forced-downgrade", v[0])
	}
	if v[1] != gate.VerdictHysteresisHold {
		t.Errorf("edge 1 verdict = %v, want hysteresis-hold", v[1])
	}
}

func TestVerdictsUpgradedAfterQualification(t *testing.T) {
	g, n := lineNet(t)
	c := newController(t, g, Config{UpgradeHoldObservations: 1})
	demands := []te.Demand{{Src: n[0], Dst: n[2], Volume: 180}}
	for _, e := range g.Edges() {
		if _, err := c.ObserveSNR(e.ID, 17); err != nil {
			t.Fatal(err)
		}
	}
	v := stepVerdicts(t, c, demands)
	for id, got := range v {
		if got != gate.VerdictUpgraded {
			t.Errorf("edge %d verdict = %v, want upgraded", int(id), got)
		}
	}
}

func TestVerdictsOfferedIdleWithoutDemandPressure(t *testing.T) {
	g, n := lineNet(t)
	c := newController(t, g, Config{UpgradeHoldObservations: 1})
	for _, e := range g.Edges() {
		if _, err := c.ObserveSNR(e.ID, 17); err != nil {
			t.Fatal(err)
		}
	}
	// 40 Gbps fits the configured 100G: the fake edges are offered but
	// the solver has no reason to pay their penalty.
	v := stepVerdicts(t, c, []te.Demand{{Src: n[0], Dst: n[2], Volume: 40}})
	for id, got := range v {
		if got != gate.VerdictOffered {
			t.Errorf("edge %d verdict = %v, want offered-idle", int(id), got)
		}
	}
}

func TestVerdictsPinned(t *testing.T) {
	g, n := lineNet(t)
	c := newController(t, g, Config{UpgradeHoldObservations: 1})
	p := graph.Path{Nodes: []graph.NodeID{n[0], n[1]}, Edges: []graph.EdgeID{0}}
	if err := c.PinFlow(p, 30); err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if _, err := c.ObserveSNR(e.ID, 17); err != nil {
			t.Fatal(err)
		}
	}
	v := stepVerdicts(t, c, []te.Demand{{Src: n[0], Dst: n[2], Volume: 40}})
	if v[0] != gate.VerdictPinned {
		t.Errorf("pinned edge verdict = %v, want pinned", v[0])
	}
}

func TestVerdictsBudgetDropped(t *testing.T) {
	// Two parallel 2-hop paths; budget 2 of 4 wanted upgrades.
	g := graph.New()
	s, a, b, d := g.AddNode("s"), g.AddNode("a"), g.AddNode("b"), g.AddNode("d")
	g.AddEdge(graph.Edge{From: s, To: a, Weight: 1})
	g.AddEdge(graph.Edge{From: a, To: d, Weight: 1})
	g.AddEdge(graph.Edge{From: s, To: b, Weight: 1})
	g.AddEdge(graph.Edge{From: b, To: d, Weight: 1})
	c := newController(t, g, Config{UpgradeHoldObservations: 1})
	c.SetMaxChangesPerRound(2)
	for _, e := range g.Edges() {
		if _, err := c.ObserveSNR(e.ID, 17); err != nil {
			t.Fatal(err)
		}
	}
	v := stepVerdicts(t, c, []te.Demand{{Src: s, Dst: d, Volume: 400}})
	upgraded, dropped := 0, 0
	for _, got := range v {
		switch got {
		case gate.VerdictUpgraded:
			upgraded++
		case gate.VerdictBudgetDropped:
			dropped++
		}
	}
	if upgraded == 0 || upgraded > 2 {
		t.Errorf("upgraded = %d, want 1..2", upgraded)
	}
	if dropped == 0 {
		t.Errorf("budget dropped no upgrades (verdicts %v)", v)
	}
}

func TestVerdictStrings(t *testing.T) {
	for v := gate.VerdictSteady; v <= gate.VerdictBudgetDropped; v++ {
		if s := v.String(); s == "" || s[0] == 'V' {
			t.Errorf("verdict %d has no name: %q", int(v), s)
		}
	}
	if s := gate.Verdict(99).String(); s != "Verdict(99)" {
		t.Errorf("unknown verdict = %q", s)
	}
}
