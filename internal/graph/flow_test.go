package graph

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// checkConservation verifies capacity constraints and flow conservation
// for an s-t flow.
func checkConservation(t *testing.T, g *Graph, src, dst NodeID, res FlowResult) {
	t.Helper()
	if len(res.EdgeFlow) != g.NumEdges() {
		t.Fatalf("EdgeFlow length %d for %d edges", len(res.EdgeFlow), g.NumEdges())
	}
	net := make([]float64, g.NumNodes())
	for id, f := range res.EdgeFlow {
		e := g.Edge(EdgeID(id))
		if f < -1e-6 {
			t.Fatalf("negative flow %v on edge %d", f, id)
		}
		if f > e.Capacity+1e-6 {
			t.Fatalf("flow %v exceeds capacity %v on edge %d", f, e.Capacity, id)
		}
		net[e.From] -= f
		net[e.To] += f
	}
	for n, v := range net {
		if NodeID(n) == src || NodeID(n) == dst {
			continue
		}
		if math.Abs(v) > 1e-6 {
			t.Fatalf("conservation violated at node %d: %v", n, v)
		}
	}
	if math.Abs(net[dst]-res.Value) > 1e-6 {
		t.Fatalf("sink imbalance: net %v vs value %v", net[dst], res.Value)
	}
}

func TestMaxFlowSimple(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(Edge{From: a, To: b, Capacity: 7})
	res, err := g.MaxFlow(a, b, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 7 {
		t.Fatalf("value = %v", res.Value)
	}
	checkConservation(t, g, a, b, res)
}

func TestMaxFlowClassic(t *testing.T) {
	// The classic CLRS example with max flow 23.
	g := New()
	s := g.AddNode("s")
	v1, v2, v3, v4 := g.AddNode("v1"), g.AddNode("v2"), g.AddNode("v3"), g.AddNode("v4")
	tt := g.AddNode("t")
	g.AddEdge(Edge{From: s, To: v1, Capacity: 16})
	g.AddEdge(Edge{From: s, To: v2, Capacity: 13})
	g.AddEdge(Edge{From: v1, To: v3, Capacity: 12})
	g.AddEdge(Edge{From: v2, To: v1, Capacity: 4})
	g.AddEdge(Edge{From: v3, To: v2, Capacity: 9})
	g.AddEdge(Edge{From: v2, To: v4, Capacity: 14})
	g.AddEdge(Edge{From: v4, To: v3, Capacity: 7})
	g.AddEdge(Edge{From: v3, To: tt, Capacity: 20})
	g.AddEdge(Edge{From: v4, To: tt, Capacity: 4})
	res, err := g.MaxFlow(s, tt, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-23) > 1e-9 {
		t.Fatalf("value = %v, want 23", res.Value)
	}
	checkConservation(t, g, s, tt, res)
}

func TestMaxFlowLimit(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(Edge{From: a, To: b, Capacity: 100})
	res, err := g.MaxFlow(a, b, 30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-30) > 1e-9 {
		t.Fatalf("limited value = %v", res.Value)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	res, err := g.MaxFlow(a, b, math.Inf(1))
	if err != nil || res.Value != 0 {
		t.Fatalf("value = %v, err = %v", res.Value, err)
	}
}

func TestMaxFlowErrors(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	if _, err := g.MaxFlow(a, 7, math.Inf(1)); err == nil {
		t.Fatal("invalid node accepted")
	}
	if _, err := g.MaxFlow(a, a, -1); err != nil {
		// src==dst returns early even with bad limit — acceptable; skip.
		t.Log("src==dst early return")
	}
	b := g.AddNode("b")
	if _, err := g.MaxFlow(a, b, -1); err == nil {
		t.Fatal("negative limit accepted")
	}
	if _, err := g.MaxFlow(a, b, math.NaN()); err == nil {
		t.Fatal("NaN limit accepted")
	}
}

func TestMaxFlowSelf(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	res, err := g.MaxFlow(a, a, math.Inf(1))
	if err != nil || res.Value != 0 {
		t.Fatalf("self flow = %v, err %v", res.Value, err)
	}
}

func TestMaxFlowMinCutRandom(t *testing.T) {
	// Property: max flow equals min cut (verified via reachability in
	// the residual = s-side of a cut; sum of crossing capacities).
	r := rng.New(21)
	for trial := 0; trial < 20; trial++ {
		g := New()
		const n = 12
		g.AddNodes(n)
		for i := 0; i < 50; i++ {
			u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
			if u == v {
				continue
			}
			g.AddEdge(Edge{From: u, To: v, Capacity: r.Uniform(1, 10)})
		}
		src, dst := NodeID(0), NodeID(n-1)
		res, err := g.MaxFlow(src, dst, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		checkConservation(t, g, src, dst, res)
		// Build residual reachability.
		resid := g.Clone()
		for id, f := range res.EdgeFlow {
			resid.SetCapacity(EdgeID(id), g.Edge(EdgeID(id)).Capacity-f)
		}
		// Add reverse arcs for pushed flow.
		for id, f := range res.EdgeFlow {
			if f > Eps {
				e := g.Edge(EdgeID(id))
				resid.AddEdge(Edge{From: e.To, To: e.From, Capacity: f})
			}
		}
		// The source side of the cut: nodes a Dijkstra over the
		// residual's positive-capacity arcs still reaches.
		sSide := make([]bool, g.NumNodes())
		for v := range sSide {
			_, _, sSide[v] = NewPathSolver(resid).ShortestPath(src, NodeID(v), nil)
		}
		if sSide[dst] {
			t.Fatal("augmenting path remains after max flow")
		}
		var cut float64
		for _, e := range g.Edges() {
			if sSide[e.From] && !sSide[e.To] {
				cut += e.Capacity
			}
		}
		if math.Abs(cut-res.Value) > 1e-6 {
			t.Fatalf("trial %d: max flow %v != min cut %v", trial, res.Value, cut)
		}
	}
}

func TestMinCostFlowPrefersCheapPath(t *testing.T) {
	g := New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	cheap1 := g.AddEdge(Edge{From: a, To: b, Capacity: 10, Cost: 1})
	cheap2 := g.AddEdge(Edge{From: b, To: c, Capacity: 10, Cost: 1})
	exp := g.AddEdge(Edge{From: a, To: c, Capacity: 10, Cost: 100})
	res, err := g.MinCostFlow(a, c, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 10 {
		t.Fatalf("value = %v", res.Value)
	}
	if res.EdgeFlow[cheap1] != 10 || res.EdgeFlow[cheap2] != 10 || res.EdgeFlow[exp] != 0 {
		t.Fatalf("flow did not prefer cheap path: %v", res.EdgeFlow)
	}
	if math.Abs(res.Cost-20) > 1e-9 {
		t.Fatalf("cost = %v, want 20", res.Cost)
	}
}

func TestMinCostFlowSpillsToExpensive(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(Edge{From: a, To: b, Capacity: 5, Cost: 1})
	g.AddEdge(Edge{From: a, To: b, Capacity: 5, Cost: 3})
	res, err := g.MinCostFlow(a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 8 {
		t.Fatalf("value = %v", res.Value)
	}
	if math.Abs(res.Cost-(5*1+3*3)) > 1e-9 {
		t.Fatalf("cost = %v, want 14", res.Cost)
	}
}

func TestMinCostMaxFlowEqualsMaxFlow(t *testing.T) {
	// Property: min-cost max flow ships exactly the max-flow value.
	r := rng.New(31)
	for trial := 0; trial < 15; trial++ {
		g := New()
		const n = 10
		g.AddNodes(n)
		for i := 0; i < 40; i++ {
			u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
			if u == v {
				continue
			}
			g.AddEdge(Edge{From: u, To: v, Capacity: r.Uniform(1, 8), Cost: r.Uniform(0, 5)})
		}
		src, dst := NodeID(0), NodeID(n-1)
		mf, err := g.MaxFlowValue(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		mcmf, err := g.MinCostMaxFlow(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mf-mcmf.Value) > 1e-6 {
			t.Fatalf("trial %d: MCMF value %v != max flow %v", trial, mcmf.Value, mf)
		}
		checkConservation(t, g, src, dst, mcmf)
	}
}

func TestMinCostFlowOptimalityAgainstBruteForce(t *testing.T) {
	// Two-path network where optimum is computable by hand for any
	// demand level.
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(Edge{From: a, To: b, Capacity: 4, Cost: 2})
	g.AddEdge(Edge{From: a, To: b, Capacity: 6, Cost: 5})
	for _, tc := range []struct{ demand, wantCost float64 }{
		{2, 4}, {4, 8}, {5, 13}, {10, 38},
	} {
		res, err := g.MinCostFlow(a, b, tc.demand)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Cost-tc.wantCost) > 1e-9 {
			t.Fatalf("demand %v: cost = %v, want %v", tc.demand, res.Cost, tc.wantCost)
		}
	}
}

func TestMinCostFlowNegativeEdge(t *testing.T) {
	g := New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddEdge(Edge{From: a, To: b, Capacity: 5, Cost: 4})
	g.AddEdge(Edge{From: b, To: c, Capacity: 5, Cost: -2})
	res, err := g.MinCostFlow(a, c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 5 || math.Abs(res.Cost-10) > 1e-9 {
		t.Fatalf("value %v cost %v", res.Value, res.Cost)
	}
}

func TestMinCostFlowNegativeCycleRejected(t *testing.T) {
	g := New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddEdge(Edge{From: a, To: b, Capacity: 5, Cost: -3})
	g.AddEdge(Edge{From: b, To: a, Capacity: 5, Cost: 1})
	g.AddEdge(Edge{From: a, To: c, Capacity: 5, Cost: 1})
	if _, err := g.MinCostFlow(a, c, 5); err == nil {
		t.Fatal("negative cycle not rejected")
	}
}

func TestMinCostFlowCostMatchesEdgeFlow(t *testing.T) {
	r := rng.New(41)
	g := New()
	const n = 8
	g.AddNodes(n)
	for i := 0; i < 30; i++ {
		u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
		if u == v {
			continue
		}
		g.AddEdge(Edge{From: u, To: v, Capacity: r.Uniform(1, 6), Cost: r.Uniform(0, 4)})
	}
	res, err := g.MinCostMaxFlow(0, NodeID(n-1))
	if err != nil {
		t.Fatal(err)
	}
	var recomputed float64
	for id, f := range res.EdgeFlow {
		recomputed += f * g.Edge(EdgeID(id)).Cost
	}
	if math.Abs(recomputed-res.Cost) > 1e-6 {
		t.Fatalf("cost %v != recomputed %v", res.Cost, recomputed)
	}
}

func TestMinCostFlowErrors(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	if _, err := g.MinCostFlow(a, 9, 1); err == nil {
		t.Fatal("invalid node accepted")
	}
	b := g.AddNode("b")
	if _, err := g.MinCostFlow(a, b, -1); err == nil {
		t.Fatal("negative limit accepted")
	}
}

func BenchmarkMaxFlowGrid(b *testing.B) {
	// 10x10 grid, unit-ish capacities.
	g := New()
	const side = 10
	g.AddNodes(side * side)
	id := func(r, c int) NodeID { return NodeID(r*side + c) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				g.AddEdge(Edge{From: id(r, c), To: id(r, c+1), Capacity: 3})
			}
			if r+1 < side {
				g.AddEdge(Edge{From: id(r, c), To: id(r+1, c), Capacity: 3})
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.MaxFlow(id(0, 0), id(side-1, side-1), math.Inf(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinCostMaxFlowGrid(b *testing.B) {
	g := New()
	const side = 8
	g.AddNodes(side * side)
	id := func(r, c int) NodeID { return NodeID(r*side + c) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				g.AddEdge(Edge{From: id(r, c), To: id(r, c+1), Capacity: 3, Cost: float64((r + c) % 4)})
			}
			if r+1 < side {
				g.AddEdge(Edge{From: id(r, c), To: id(r+1, c), Capacity: 3, Cost: float64((r * c) % 3)})
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.MinCostMaxFlow(id(0, 0), id(side-1, side-1)); err != nil {
			b.Fatal(err)
		}
	}
}
