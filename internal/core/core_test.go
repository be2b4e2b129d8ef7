package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// twoPath builds a: src -> mid -> dst topology with 100 Gbps links,
// where both links can be upgraded by +100 at penalty 10.
func twoPath(t *testing.T) (*Topology, graph.NodeID, graph.NodeID) {
	t.Helper()
	g := graph.New()
	s, m, d := g.AddNode("s"), g.AddNode("m"), g.AddNode("d")
	e1 := g.AddEdge(graph.Edge{From: s, To: m, Capacity: 100, Weight: 1})
	e2 := g.AddEdge(graph.Edge{From: m, To: d, Capacity: 100, Weight: 1})
	top := NewTopology(g)
	if err := top.SetUpgrade(e1, 100, 10); err != nil {
		t.Fatal(err)
	}
	if err := top.SetUpgrade(e2, 100, 10); err != nil {
		t.Fatal(err)
	}
	return top, s, d
}

func TestSetUpgradeValidation(t *testing.T) {
	g := graph.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	e := g.AddEdge(graph.Edge{From: a, To: b, Capacity: 100})
	top := NewTopology(g)
	if err := top.SetUpgrade(99, 10, 1); err == nil {
		t.Fatal("unknown edge accepted")
	}
	if err := top.SetUpgrade(e, 10, -1); err == nil {
		t.Fatal("negative penalty accepted")
	}
	if err := top.SetUpgrade(e, 50, 5); err != nil {
		t.Fatal(err)
	}
	if top.Upgrades[e].ExtraCapacity != 50 {
		t.Fatal("upgrade not recorded")
	}
	// Non-positive extra removes the entry.
	if err := top.SetUpgrade(e, 0, 5); err != nil {
		t.Fatal(err)
	}
	if _, ok := top.Upgrades[e]; ok {
		t.Fatal("zero upgrade not removed")
	}
}

func TestSetTrafficValidation(t *testing.T) {
	g := graph.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	e := g.AddEdge(graph.Edge{From: a, To: b, Capacity: 100})
	top := NewTopology(g)
	if err := top.SetTraffic(99, 10); err == nil {
		t.Fatal("unknown edge accepted")
	}
	if err := top.SetTraffic(e, -1); err == nil {
		t.Fatal("negative traffic accepted")
	}
	if err := top.SetTraffic(e, 70); err != nil {
		t.Fatal(err)
	}
}

func TestFullCapacityGraph(t *testing.T) {
	top, _, _ := twoPath(t)
	full := top.FullCapacityGraph()
	if full.Edge(0).Capacity != 200 || full.Edge(1).Capacity != 200 {
		t.Fatalf("full capacities: %v, %v", full.Edge(0).Capacity, full.Edge(1).Capacity)
	}
	// Original untouched.
	if top.G.Edge(0).Capacity != 100 {
		t.Fatal("original mutated")
	}
}

func TestAugmentAlgorithm1(t *testing.T) {
	top, _, _ := twoPath(t)
	a, err := Augment(top, PenaltyFromMatrix)
	if err != nil {
		t.Fatal(err)
	}
	// G' = 2 real + 2 fake edges.
	if a.Graph.NumEdges() != 4 {
		t.Fatalf("augmented edges = %d, want 4", a.Graph.NumEdges())
	}
	// Real edges keep IDs and get cost 0.
	for id := 0; id < 2; id++ {
		e := a.Graph.Edge(graph.EdgeID(id))
		if e.Cost != 0 || e.Label == FakeLabel {
			t.Fatalf("real edge %d corrupted: %+v", id, e)
		}
	}
	// Fake edges parallel the real ones with U capacity and P cost.
	for fakeID, realID := range a.FakeOf {
		fe := a.Graph.Edge(fakeID)
		re := top.G.Edge(realID)
		if fe.From != re.From || fe.To != re.To {
			t.Fatalf("fake edge endpoints wrong: %+v vs %+v", fe, re)
		}
		if fe.Capacity != 100 || fe.Cost != 10 || fe.Label != FakeLabel {
			t.Fatalf("fake edge attrs wrong: %+v", fe)
		}
		if a.FakeFor[realID] != fakeID {
			t.Fatal("FakeFor inverse broken")
		}
	}
}

func TestAugmentSkipsNonUpgradable(t *testing.T) {
	g := graph.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(graph.Edge{From: a, To: b, Capacity: 100})
	top := NewTopology(g)
	aug, err := Augment(top, nil) // nil penalty = default
	if err != nil {
		t.Fatal(err)
	}
	if aug.Graph.NumEdges() != 1 || len(aug.FakeOf) != 0 {
		t.Fatalf("non-upgradable link grew a fake edge")
	}
}

func TestAugmentNilTopology(t *testing.T) {
	if _, err := Augment(nil, nil); err == nil {
		t.Fatal("nil topology accepted")
	}
}

func TestPenaltyFunctions(t *testing.T) {
	e := graph.Edge{}
	up := Upgrade{ExtraCapacity: 100, Penalty: 7}
	if r, f := PenaltyFromMatrix(e, up, 55); r != 0 || f != 7 {
		t.Fatalf("matrix penalty = %v, %v", r, f)
	}
	if r, f := PenaltyTrafficProportional(e, up, 55); r != 0 || f != 55 {
		t.Fatalf("traffic penalty = %v, %v", r, f)
	}
	// Penalty floor when traffic is below it.
	if _, f := PenaltyTrafficProportional(e, up, 3); f != 7 {
		t.Fatalf("traffic penalty floor = %v", f)
	}
	if r, f := PenaltyUnitWeights(e, up, 55); r != 1 || f != 1 {
		t.Fatalf("unit penalty = %v, %v", r, f)
	}
}

func TestMCMFOnAugmentedAchievesFullCapacity(t *testing.T) {
	top, s, d := twoPath(t)
	a, _ := Augment(top, PenaltyFromMatrix)
	res, err := a.Graph.MinCostMaxFlow(s, d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-200) > 1e-9 {
		t.Fatalf("augmented max flow = %v, want 200", res.Value)
	}
	// Cost: 100 units ride each fake edge at penalty 10.
	if math.Abs(res.Cost-2000) > 1e-9 {
		t.Fatalf("cost = %v, want 2000", res.Cost)
	}
}

func TestTranslateProducesUpgrades(t *testing.T) {
	top, s, d := twoPath(t)
	a, _ := Augment(top, PenaltyFromMatrix)
	res, _ := a.Graph.MinCostMaxFlow(s, d)
	dec, err := a.Translate(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Changes) != 2 {
		t.Fatalf("changes = %d, want 2", len(dec.Changes))
	}
	for _, ch := range dec.Changes {
		if ch.OldCapacity != 100 || ch.NewCapacity != 200 || ch.Penalty != 10 {
			t.Fatalf("change wrong: %+v", ch)
		}
		if math.Abs(ch.FlowOnFake-100) > 1e-9 {
			t.Fatalf("fake flow = %v", ch.FlowOnFake)
		}
	}
	// Combined physical flow: 200 on each link.
	for id, f := range dec.EdgeFlow {
		if math.Abs(f-200) > 1e-9 {
			t.Fatalf("edge %d combined flow = %v", id, f)
		}
	}
}

func TestTranslateNoUpgradeWhenDemandFits(t *testing.T) {
	top, s, d := twoPath(t)
	a, _ := Augment(top, PenaltyFromMatrix)
	// Demand below base capacity: MCMF with limit 80 should not touch
	// fake edges (they cost more).
	res, err := a.Graph.MinCostFlow(s, d, 80)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := a.Translate(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Changes) != 0 {
		t.Fatalf("unnecessary upgrades: %+v", dec.Changes)
	}
	if math.Abs(dec.Value-80) > 1e-9 {
		t.Fatalf("value = %v", dec.Value)
	}
}

func TestTranslateSizeMismatch(t *testing.T) {
	top, _, _ := twoPath(t)
	a, _ := Augment(top, nil)
	if _, err := a.Translate(graph.FlowResult{EdgeFlow: []float64{1}}); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestDecisionApplyTo(t *testing.T) {
	top, s, d := twoPath(t)
	a, _ := Augment(top, nil)
	res, _ := a.Graph.MinCostMaxFlow(s, d)
	dec, _ := a.Translate(res)
	g2 := dec.ApplyTo(top.G)
	if g2.Edge(0).Capacity != 200 {
		t.Fatalf("upgrade not applied: %v", g2.Edge(0).Capacity)
	}
	if top.G.Edge(0).Capacity != 100 {
		t.Fatal("ApplyTo mutated input")
	}
}

func TestTheorem1TwoPath(t *testing.T) {
	top, s, d := twoPath(t)
	rep, err := CheckTheorem1(top, s, d, PenaltyFromMatrix)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Fatalf("theorem fails: %+v", rep)
	}
	if rep.BaseValue != 100 || rep.FullValue != 200 || rep.AugmentedValue != 200 {
		t.Fatalf("values: %+v", rep)
	}
}

// Property test: Theorem 1 on random topologies with random upgrades,
// under each penalty function.
func TestTheorem1Random(t *testing.T) {
	r := rng.New(77)
	penalties := map[string]PenaltyFunc{
		"matrix":  PenaltyFromMatrix,
		"traffic": PenaltyTrafficProportional,
		"unit":    PenaltyUnitWeights,
	}
	for trial := 0; trial < 30; trial++ {
		g := graph.New()
		n := 5 + r.Intn(8)
		g.AddNodes(n)
		top := NewTopology(g)
		nEdges := n * 3
		for i := 0; i < nEdges; i++ {
			u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
			if u == v {
				continue
			}
			id := g.AddEdge(graph.Edge{From: u, To: v, Capacity: r.Uniform(50, 150), Weight: 1})
			if r.Bernoulli(0.6) {
				if err := top.SetUpgrade(id, r.Uniform(25, 100), r.Uniform(1, 50)); err != nil {
					t.Fatal(err)
				}
			}
			if err := top.SetTraffic(id, r.Uniform(0, 100)); err != nil {
				t.Fatal(err)
			}
		}
		src, dst := graph.NodeID(0), graph.NodeID(n-1)
		for name, pf := range penalties {
			rep, err := CheckTheorem1(top, src, dst, pf)
			if err != nil {
				t.Fatalf("trial %d (%s): %v", trial, name, err)
			}
			if !rep.Holds {
				t.Fatalf("trial %d (%s): theorem fails: %+v", trial, name, rep)
			}
			if rep.FullValue+1e-9 < rep.BaseValue {
				t.Fatalf("trial %d (%s): upgrades reduced capacity", trial, name)
			}
		}
	}
}

func TestRemoveInfeasible(t *testing.T) {
	top, s, d := twoPath(t)
	a, _ := Augment(top, PenaltyFromMatrix)
	// Drop the upgrade on edge 0 (its SNR fell).
	n := a.RemoveInfeasible(func(realID graph.EdgeID) bool { return realID != 0 })
	if n != 1 {
		t.Fatalf("removed %d fake edges, want 1", n)
	}
	res, err := a.Graph.MinCostMaxFlow(s, d)
	if err != nil {
		t.Fatal(err)
	}
	// Bottleneck: edge 0 stuck at 100.
	if math.Abs(res.Value-100) > 1e-9 {
		t.Fatalf("flow after removal = %v, want 100", res.Value)
	}
	dec, _ := a.Translate(res)
	for _, ch := range dec.Changes {
		if ch.Edge == 0 {
			t.Fatal("upgrade instructed on infeasible edge")
		}
	}
	// Removing again is a no-op.
	if n := a.RemoveInfeasible(func(realID graph.EdgeID) bool { return realID != 0 }); n != 0 {
		t.Fatalf("second removal removed %d", n)
	}
}

func TestUnsplittableGadget(t *testing.T) {
	// Figure 8: single link A->B at 100, upgradable to 200. The plain
	// augmentation cannot carry an unsplittable 200; the gadget can.
	g := graph.New()
	a, b := g.AddNode("A"), g.AddNode("B")
	e := g.AddEdge(graph.Edge{From: a, To: b, Capacity: 100, Weight: 1})
	top := NewTopology(g)
	if err := top.SetUpgrade(e, 100, 100); err != nil {
		t.Fatal(err)
	}
	aug, _ := Augment(top, PenaltyFromMatrix)

	// Plain augmentation: the widest single path carries only 100.
	paths := aug.Graph.KShortestPaths(a, b, 3)
	widest := 0.0
	for _, p := range paths {
		minCap := math.Inf(1)
		for _, id := range p.Edges {
			if c := aug.Graph.Edge(id).Capacity; c < minCap {
				minCap = c
			}
		}
		if minCap > widest {
			widest = minCap
		}
	}
	if widest != 100 {
		t.Fatalf("pre-gadget widest single path = %v, want 100", widest)
	}

	inner, err := aug.UnsplittableGadget(e)
	if err != nil {
		t.Fatal(err)
	}
	// Now a single path of capacity 200 exists.
	paths = aug.Graph.KShortestPaths(a, b, 5)
	widest = 0
	for _, p := range paths {
		minCap := math.Inf(1)
		for _, id := range p.Edges {
			if c := aug.Graph.Edge(id).Capacity; c < minCap {
				minCap = c
			}
		}
		if minCap > widest {
			widest = minCap
		}
	}
	if widest != 200 {
		t.Fatalf("post-gadget widest single path = %v, want 200", widest)
	}

	// Total capacity A->B stays capped at 200 (not 100+200).
	mf, err := aug.Graph.MaxFlowValue(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mf-200) > 1e-9 {
		t.Fatalf("gadget total capacity = %v, want 200", mf)
	}

	// MCMF + translation still produces the upgrade and the right flow.
	res, err := aug.Graph.MinCostMaxFlow(a, b)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := aug.Translate(res)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dec.Value-200) > 1e-9 {
		t.Fatalf("translated value = %v", dec.Value)
	}
	if len(dec.Changes) != 1 || dec.Changes[0].Edge != e || dec.Changes[0].NewCapacity != 200 {
		t.Fatalf("translated changes: %+v", dec.Changes)
	}
	if math.Abs(dec.EdgeFlow[e]-200) > 1e-9 {
		t.Fatalf("physical edge flow = %v", dec.EdgeFlow[e])
	}
	_ = inner
}

func TestUnsplittableGadgetErrors(t *testing.T) {
	g := graph.New()
	a, b := g.AddNode("A"), g.AddNode("B")
	e := g.AddEdge(graph.Edge{From: a, To: b, Capacity: 100})
	plain := g.AddEdge(graph.Edge{From: b, To: a, Capacity: 100})
	top := NewTopology(g)
	if err := top.SetUpgrade(e, 100, 1); err != nil {
		t.Fatal(err)
	}
	aug, _ := Augment(top, nil)
	if _, err := aug.UnsplittableGadget(plain); err == nil {
		t.Fatal("gadget on non-upgradable edge accepted")
	}
	if _, err := aug.UnsplittableGadget(e); err != nil {
		t.Fatal(err)
	}
	// Second gadgetization of the same edge fails (fake already consumed).
	if _, err := aug.UnsplittableGadget(e); err == nil {
		t.Fatal("double gadgetization accepted")
	}
}

func BenchmarkAugmentAndSolve(b *testing.B) {
	r := rng.New(1)
	g := graph.New()
	const n = 40
	g.AddNodes(n)
	top := NewTopology(g)
	for i := 0; i < n*4; i++ {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if u == v {
			continue
		}
		id := g.AddEdge(graph.Edge{From: u, To: v, Capacity: 100, Weight: 1})
		if r.Bernoulli(0.7) {
			if err := top.SetUpgrade(id, 100, r.Uniform(1, 100)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := Augment(top, PenaltyFromMatrix)
		if err != nil {
			b.Fatal(err)
		}
		res, err := a.Graph.MinCostMaxFlow(0, n-1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Translate(res); err != nil {
			b.Fatal(err)
		}
	}
}
