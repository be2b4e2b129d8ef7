package graph

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// weightOn returns the total Weight of p's edges on g.
func weightOn(g *Graph, p Path) float64 {
	var w float64
	for _, id := range p.Edges {
		w += g.Edge(id).Weight
	}
	return w
}

// diamond builds: a->b->d (weight 1+1), a->c->d (weight 2+2), a->d (weight 10).
func diamond(t *testing.T) (*Graph, [4]NodeID, [5]EdgeID) {
	t.Helper()
	g := New()
	a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
	e0 := g.AddEdge(Edge{From: a, To: b, Capacity: 10, Weight: 1})
	e1 := g.AddEdge(Edge{From: b, To: d, Capacity: 10, Weight: 1})
	e2 := g.AddEdge(Edge{From: a, To: c, Capacity: 10, Weight: 2})
	e3 := g.AddEdge(Edge{From: c, To: d, Capacity: 10, Weight: 2})
	e4 := g.AddEdge(Edge{From: a, To: d, Capacity: 10, Weight: 10})
	return g, [4]NodeID{a, b, c, d}, [5]EdgeID{e0, e1, e2, e3, e4}
}

func TestDijkstraShortestPath(t *testing.T) {
	g, n, e := diamond(t)
	p, w, ok := NewPathSolver(g).ShortestPath(n[0], n[3], nil)
	if !ok {
		t.Fatal("no path found")
	}
	if w != 2 {
		t.Fatalf("weight = %v, want 2", w)
	}
	if len(p.Edges) != 2 || p.Edges[0] != e[0] || p.Edges[1] != e[1] {
		t.Fatalf("path = %+v, want a->b->d", p)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	if _, _, ok := NewPathSolver(g).ShortestPath(a, b, nil); ok {
		t.Fatal("found path in edgeless graph")
	}
}

func TestDijkstraZeroWeights(t *testing.T) {
	g := New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddEdge(Edge{From: a, To: b, Capacity: 1, Weight: 0})
	g.AddEdge(Edge{From: b, To: c, Capacity: 1, Weight: 0})
	_, w, ok := NewPathSolver(g).ShortestPath(a, c, nil)
	if !ok || w != 0 {
		t.Fatalf("w = %v, ok = %v", w, ok)
	}
}

func TestBellmanFordMatchesDijkstraOnNonNegative(t *testing.T) {
	// Random graph, compare distances where Cost == Weight >= 0.
	r := rng.New(5)
	g := New()
	const n = 30
	g.AddNodes(n)
	for i := 0; i < 150; i++ {
		u := NodeID(r.Intn(n))
		v := NodeID(r.Intn(n))
		if u == v {
			continue
		}
		w := r.Uniform(0.1, 5)
		g.AddEdge(Edge{From: u, To: v, Capacity: 1, Weight: w, Cost: w})
	}
	distBF, neg := g.BellmanFord(0)
	if neg {
		t.Fatal("negative cycle in non-negative graph")
	}
	for v := 0; v < n; v++ {
		_, dw, ok := NewPathSolver(g).ShortestPath(0, NodeID(v), nil)
		if !ok {
			if !math.IsInf(distBF[v], 1) {
				t.Fatalf("node %d: dijkstra unreachable, BF %v", v, distBF[v])
			}
			continue
		}
		if math.Abs(dw-distBF[v]) > 1e-6 {
			t.Fatalf("node %d: dijkstra %v != bellman-ford %v", v, dw, distBF[v])
		}
	}
}

func TestBellmanFordNegativeCycle(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(Edge{From: a, To: b, Capacity: 1, Cost: -2})
	g.AddEdge(Edge{From: b, To: a, Capacity: 1, Cost: 1})
	if _, neg := g.BellmanFord(a); !neg {
		t.Fatal("negative cycle not detected")
	}
}

func TestBellmanFordNegativeEdgeNoCycle(t *testing.T) {
	g := New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddEdge(Edge{From: a, To: b, Capacity: 1, Cost: 5})
	g.AddEdge(Edge{From: b, To: c, Capacity: 1, Cost: -3})
	dist, neg := g.BellmanFord(a)
	if neg {
		t.Fatal("false negative cycle")
	}
	if dist[c] != 2 {
		t.Fatalf("dist[c] = %v, want 2", dist[c])
	}
}

func TestKShortestPathsDiamond(t *testing.T) {
	g, n, _ := diamond(t)
	paths := g.KShortestPaths(n[0], n[3], 5)
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	wants := []float64{2, 4, 10}
	for i, p := range paths {
		if err := p.Validate(g); err != nil {
			t.Fatalf("path %d invalid: %v", i, err)
		}
		if w := weightOn(g, p); w != wants[i] {
			t.Fatalf("path %d weight = %v, want %v", i, w, wants[i])
		}
	}
}

func TestKShortestPathsLoopless(t *testing.T) {
	// Graph with a cycle; k-shortest must not revisit nodes.
	g := New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddEdge(Edge{From: a, To: b, Capacity: 1, Weight: 1})
	g.AddEdge(Edge{From: b, To: a, Capacity: 1, Weight: 1})
	g.AddEdge(Edge{From: b, To: c, Capacity: 1, Weight: 1})
	paths := g.KShortestPaths(a, c, 10)
	if len(paths) != 1 {
		t.Fatalf("got %d paths, want 1 (loopless)", len(paths))
	}
	for _, p := range paths {
		seen := map[NodeID]bool{}
		for _, nd := range p.Nodes {
			if seen[nd] {
				t.Fatalf("path revisits node %d", int(nd))
			}
			seen[nd] = true
		}
	}
}

func TestKShortestPathsAscending(t *testing.T) {
	r := rng.New(11)
	g := New()
	const n = 15
	g.AddNodes(n)
	for i := 0; i < 60; i++ {
		u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
		if u == v {
			continue
		}
		g.AddEdge(Edge{From: u, To: v, Capacity: 1, Weight: r.Uniform(1, 10)})
	}
	paths := g.KShortestPaths(0, NodeID(n-1), 8)
	for i := 1; i < len(paths); i++ {
		if weightOn(g, paths[i])+1e-9 < weightOn(g, paths[i-1]) {
			t.Fatalf("paths not ascending: %v then %v", weightOn(g, paths[i-1]), weightOn(g, paths[i]))
		}
	}
	// All distinct.
	for i := range paths {
		for j := i + 1; j < len(paths); j++ {
			if equalEdges(paths[i].Edges, paths[j].Edges) {
				t.Fatal("duplicate paths returned")
			}
		}
	}
}

func TestKShortestPathsParallelEdges(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(Edge{From: a, To: b, Capacity: 1, Weight: 1})
	g.AddEdge(Edge{From: a, To: b, Capacity: 1, Weight: 2})
	paths := g.KShortestPaths(a, b, 5)
	if len(paths) != 2 {
		t.Fatalf("got %d paths over parallel edges, want 2", len(paths))
	}
}

func TestKShortestPathsZeroK(t *testing.T) {
	g, n, _ := diamond(t)
	if paths := g.KShortestPaths(n[0], n[3], 0); paths != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestKShortestPathsNoPath(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	if paths := g.KShortestPaths(a, b, 3); paths != nil {
		t.Fatal("disconnected should return nil")
	}
}
