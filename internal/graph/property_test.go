package graph

// Property-based tests (testing/quick + seeded generators) for the
// invariants the rest of the system leans on. These complement the
// example-based tests in graph_test.go/flow_test.go by exploring the
// input space.

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// randomGraph builds a reproducible random graph from a seed.
func randomGraph(seed uint64, n, edges int) *Graph {
	r := rng.New(seed)
	g := New()
	g.AddNodes(n)
	for i := 0; i < edges; i++ {
		u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
		if u == v {
			continue
		}
		g.AddEdge(Edge{
			From: u, To: v,
			Capacity: r.Uniform(0.5, 20),
			Cost:     r.Uniform(0, 5),
			Weight:   r.Uniform(0.5, 10),
		})
	}
	return g
}

// TestPropertyMaxFlowUpperBounds: max flow never exceeds either the
// out-capacity of the source or the in-capacity of the sink.
func TestPropertyMaxFlowUpperBounds(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed, 8, 24)
		src, dst := NodeID(0), NodeID(7)
		v, err := g.MaxFlowValue(src, dst)
		if err != nil {
			return false
		}
		var outCap, inCap float64
		for _, id := range g.Out(src) {
			outCap += g.Edge(id).Capacity
		}
		for _, e := range g.Edges() {
			if e.To == dst {
				inCap += e.Capacity
			}
		}
		return v <= outCap+1e-6 && v <= inCap+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMaxFlowMonotoneInCapacity: raising one edge's capacity
// never lowers the max flow.
func TestPropertyMaxFlowMonotoneInCapacity(t *testing.T) {
	f := func(seed uint64, which uint8, extraRaw uint8) bool {
		g := randomGraph(seed, 8, 24)
		if g.NumEdges() == 0 {
			return true
		}
		src, dst := NodeID(0), NodeID(7)
		before, err := g.MaxFlowValue(src, dst)
		if err != nil {
			return false
		}
		id := EdgeID(int(which) % g.NumEdges())
		extra := float64(extraRaw%50) + 1
		g.SetCapacity(id, g.Edge(id).Capacity+extra)
		after, err := g.MaxFlowValue(src, dst)
		if err != nil {
			return false
		}
		return after >= before-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMinCostNeverCheaperThanAnyFlow: among flows of the same
// value, MCMF's cost is minimal — in particular not higher than the
// cost of the Dinic flow of equal value re-routed by MCMF with a limit.
func TestPropertyMinCostAtMostDinicCost(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed, 8, 24)
		src, dst := NodeID(0), NodeID(7)
		dinic, err := g.MaxFlow(src, dst, math.Inf(1))
		if err != nil {
			return false
		}
		if dinic.Value <= Eps {
			return true
		}
		mcmf, err := g.MinCostFlow(src, dst, dinic.Value)
		if err != nil {
			return false
		}
		if math.Abs(mcmf.Value-dinic.Value) > 1e-6 {
			return false
		}
		return mcmf.Cost <= dinic.Cost+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMinCostFlowCostMonotoneInLimit: shipping more never
// lowers total cost (costs are non-negative here).
func TestPropertyMinCostFlowCostMonotoneInLimit(t *testing.T) {
	f := func(seed uint64, aRaw, bRaw uint8) bool {
		g := randomGraph(seed, 8, 24)
		src, dst := NodeID(0), NodeID(7)
		a := float64(aRaw % 30)
		b := float64(bRaw % 30)
		if a > b {
			a, b = b, a
		}
		ra, err := g.MinCostFlow(src, dst, a)
		if err != nil {
			return false
		}
		rb, err := g.MinCostFlow(src, dst, b)
		if err != nil {
			return false
		}
		if rb.Value < ra.Value-1e-6 {
			return false
		}
		return rb.Cost >= ra.Cost-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDijkstraTriangleInequality: d(s,t) <= d(s,m) + d(m,t).
func TestPropertyDijkstraTriangleInequality(t *testing.T) {
	f := func(seed uint64, mRaw uint8) bool {
		g := randomGraph(seed, 9, 30)
		s, tt := NodeID(0), NodeID(8)
		m := NodeID(int(mRaw) % 9)
		_, dst2, okST := NewPathSolver(g).ShortestPath(s, tt, nil)
		if !okST {
			return true
		}
		_, dsm, okSM := NewPathSolver(g).ShortestPath(s, m, nil)
		_, dmt, okMT := NewPathSolver(g).ShortestPath(m, tt, nil)
		if !okSM || !okMT {
			return true
		}
		return dst2 <= dsm+dmt+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyKShortestFirstMatchesDijkstra: the first of the k
// shortest paths has exactly the Dijkstra distance.
func TestPropertyKShortestFirstMatchesDijkstra(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed, 8, 24)
		src, dst := NodeID(0), NodeID(7)
		_, w, ok := NewPathSolver(g).ShortestPath(src, dst, nil)
		paths := g.KShortestPaths(src, dst, 3)
		if !ok {
			return len(paths) == 0
		}
		if len(paths) == 0 {
			return false
		}
		return math.Abs(weightOn(g, paths[0])-w) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCloneIndependence: operations on a clone never affect the
// original's flow results.
func TestPropertyCloneIndependence(t *testing.T) {
	f := func(seed uint64, which uint8) bool {
		g := randomGraph(seed, 7, 20)
		if g.NumEdges() == 0 {
			return true
		}
		src, dst := NodeID(0), NodeID(6)
		before, err := g.MaxFlowValue(src, dst)
		if err != nil {
			return false
		}
		c := g.Clone()
		id := EdgeID(int(which) % c.NumEdges())
		c.SetCapacity(id, 0)
		c.AddNode("extra")
		after, err := g.MaxFlowValue(src, dst)
		if err != nil {
			return false
		}
		return math.Abs(before-after) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWithoutEdgesFlowMatchesZeroed: removing edges is
// equivalent to zeroing their capacity for flow purposes.
func TestPropertyWithoutEdgesFlowMatchesZeroed(t *testing.T) {
	f := func(seed uint64, mask uint16) bool {
		g := randomGraph(seed, 7, 18)
		src, dst := NodeID(0), NodeID(6)
		remove := map[EdgeID]bool{}
		zeroed := g.Clone()
		for i := 0; i < g.NumEdges(); i++ {
			if mask&(1<<(i%16)) != 0 && i%3 == 0 {
				remove[EdgeID(i)] = true
				zeroed.SetCapacity(EdgeID(i), 0)
			}
		}
		removedG := withoutEdges(g, remove)
		a, err1 := removedG.MaxFlowValue(src, dst)
		b, err2 := zeroed.MaxFlowValue(src, dst)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a-b) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// withoutEdges returns a copy of g with the given edges removed (IDs
// reassigned densely).
func withoutEdges(g *Graph, remove map[EdgeID]bool) *Graph {
	c := New()
	for i := 0; i < g.NumNodes(); i++ {
		c.AddNode(g.NodeName(NodeID(i)))
	}
	for _, e := range g.Edges() {
		if !remove[e.ID] {
			c.AddEdge(e)
		}
	}
	return c
}
