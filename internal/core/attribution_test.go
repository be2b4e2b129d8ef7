package core

import (
	"math"
	"testing"

	"repro/internal/graph"
)

func TestAttributionReportsSelectionAndResidual(t *testing.T) {
	g := graph.New()
	s, d := g.AddNode("s"), g.AddNode("d")
	e0 := g.AddEdge(graph.Edge{From: s, To: d, Capacity: 100})
	e1 := g.AddEdge(graph.Edge{From: s, To: d, Capacity: 100})

	top := NewTopology(g)
	if err := top.SetUpgrade(e0, 100, 2); err != nil {
		t.Fatal(err)
	}
	if err := top.SetUpgrade(e1, 50, 2); err != nil {
		t.Fatal(err)
	}
	aug, err := Augment(top, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Demand 260: base 200 plus 60 of upgrade headroom. The min-cost
	// solver fills free real capacity first, then the cheapest fakes.
	res, err := aug.Graph.MinCostFlow(s, d, 260)
	if err != nil {
		t.Fatal(err)
	}
	atts := aug.Attribution(res.EdgeFlow)
	if len(atts) != 2 {
		t.Fatalf("got %d attributions, want 2", len(atts))
	}
	if atts[0].Real != e0 || atts[1].Real != e1 {
		t.Fatalf("attributions not sorted by real edge: %+v", atts)
	}
	var selected, totalFake float64
	for _, a := range atts {
		if a.Fake != aug.FakeFor[a.Real] {
			t.Errorf("edge %d fake = %d, want %d", int(a.Real), int(a.Fake), int(aug.FakeFor[a.Real]))
		}
		if a.FakePenalty != 2 {
			t.Errorf("edge %d penalty = %v, want 2", int(a.Real), a.FakePenalty)
		}
		if residual := a.FakeCapacity - a.FlowOnFake; residual < -graph.Eps {
			t.Errorf("edge %d residual = %v, capacity %v flow %v", int(a.Real), residual, a.FakeCapacity, a.FlowOnFake)
		}
		if a.FlowOnFake > graph.Eps {
			selected++
		}
		totalFake += a.FlowOnFake
	}
	if selected == 0 {
		t.Fatal("no fake edge selected for a demand above base capacity")
	}
	if math.Abs(totalFake-60) > 1e-6 {
		t.Fatalf("fake flow = %v, want 60", totalFake)
	}

	// A short edgeFlow (e.g. from a stale solve) must not panic and
	// reads as zero fake flow.
	atts = aug.Attribution(res.EdgeFlow[:2])
	for _, a := range atts {
		if a.FlowOnFake != 0 {
			t.Errorf("short edgeFlow attributed flow: %+v", a)
		}
	}
}

// TestGadgetTranslationAndAttribution works one Figure-8 gadget by
// hand. Three parallel A→B links: e0 (100, +100 at penalty 7,
// gadgetized), e1 (10, not upgradable) and e2 (20, +30 at penalty 9).
// G′ numbers e2's fake 4 and e0's gadget edges 5..8 (inner fake 7).
// A 200 demand fills the zero-cost routes e1, e2 and the gadget middle
// (130), then takes 70 over the inner fake (penalty 7 < 9).
func TestGadgetTranslationAndAttribution(t *testing.T) {
	g := graph.New()
	a, b := g.AddNode("A"), g.AddNode("B")
	e0 := g.AddEdge(graph.Edge{From: a, To: b, Capacity: 100, Weight: 1})
	e1 := g.AddEdge(graph.Edge{From: a, To: b, Capacity: 10, Weight: 1})
	e2 := g.AddEdge(graph.Edge{From: a, To: b, Capacity: 20, Weight: 1})
	top := NewTopology(g)
	if err := top.SetUpgrade(e0, 100, 7); err != nil {
		t.Fatal(err)
	}
	if err := top.SetUpgrade(e2, 30, 9); err != nil {
		t.Fatal(err)
	}
	aug, err := Augment(top, nil)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := aug.UnsplittableGadget(e0)
	if err != nil {
		t.Fatal(err)
	}
	if inner != 7 || aug.FakeFor[e0] != 7 || aug.FakeFor[e2] != 4 || len(aug.FakeOf) != 2 ||
		aug.FakeOf[7] != e0 || aug.FakeOf[4] != e2 {
		t.Fatalf("fake maps after gadget: inner %d, FakeFor %v, FakeOf %v", inner, aug.FakeFor, aug.FakeOf)
	}
	if aug.Graph.NumEdges() != 9 || aug.Graph.NumNodes() != 4 {
		t.Fatalf("G′ has %d nodes / %d edges, want 4 / 9", aug.Graph.NumNodes(), aug.Graph.NumEdges())
	}

	res, err := aug.Graph.MinCostFlow(a, b, 200)
	if err != nil {
		t.Fatal(err)
	}
	wantFlow := []float64{0, 10, 20, 0, 0, 170, 100, 70, 170}
	for id, f := range wantFlow {
		if res.EdgeFlow[id] != f {
			t.Fatalf("G′ flow %v, want %v", res.EdgeFlow, wantFlow)
		}
	}
	if res.Value != 200 || res.Cost != 490 {
		t.Fatalf("value %v cost %v, want 200 and 490", res.Value, res.Cost)
	}

	dec, err := aug.Translate(res)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Value != 200 || dec.PenaltyCost != 490 {
		t.Fatalf("decision value %v cost %v", dec.Value, dec.PenaltyCost)
	}
	// e0 carries its middle edge's 100 plus the inner fake's 70.
	if len(dec.EdgeFlow) != 3 || dec.EdgeFlow[e0] != 170 || dec.EdgeFlow[e1] != 10 || dec.EdgeFlow[e2] != 20 {
		t.Fatalf("physical flows %v, want [170 10 20]", dec.EdgeFlow)
	}
	wantChange := CapacityChange{Edge: e0, OldCapacity: 100, NewCapacity: 200, Penalty: 7, FlowOnFake: 70}
	if len(dec.Changes) != 1 || dec.Changes[0] != wantChange {
		t.Fatalf("changes %+v, want [%+v]", dec.Changes, wantChange)
	}

	want := []FakeAttribution{
		{Real: e0, Fake: 7, FakeCapacity: 200, FakePenalty: 7, FlowOnFake: 70},
		{Real: e2, Fake: 4, FakeCapacity: 30, FakePenalty: 9, FlowOnFake: 0},
	}
	atts := aug.Attribution(res.EdgeFlow)
	if len(atts) != len(want) {
		t.Fatalf("attributions %+v, want %+v", atts, want)
	}
	for i := range want {
		if atts[i] != want[i] {
			t.Fatalf("attribution %d is %+v, want %+v", i, atts[i], want[i])
		}
	}
}
