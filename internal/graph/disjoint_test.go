package graph

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestEdgeDisjointPairSimple(t *testing.T) {
	// Two disjoint 2-hop paths s->a->d and s->b->d.
	g := New()
	s, a, b, d := g.AddNode("s"), g.AddNode("a"), g.AddNode("b"), g.AddNode("d")
	g.AddEdge(Edge{From: s, To: a, Capacity: 1, Weight: 1})
	g.AddEdge(Edge{From: a, To: d, Capacity: 1, Weight: 1})
	g.AddEdge(Edge{From: s, To: b, Capacity: 1, Weight: 2})
	g.AddEdge(Edge{From: b, To: d, Capacity: 1, Weight: 2})
	pair, ok := g.EdgeDisjointShortestPair(s, d)
	if !ok {
		t.Fatal("no pair found")
	}
	if err := pair.Working.Validate(g); err != nil {
		t.Fatal(err)
	}
	if err := pair.Protection.Validate(g); err != nil {
		t.Fatal(err)
	}
	if pair.TotalWeight != 6 {
		t.Fatalf("total weight = %v, want 6", pair.TotalWeight)
	}
	if pair.Working.WeightOn(g) != 2 {
		t.Fatalf("working weight = %v", pair.Working.WeightOn(g))
	}
	assertDisjoint(t, pair)
}

func assertDisjoint(t *testing.T, pair DisjointPair) {
	t.Helper()
	seen := map[EdgeID]bool{}
	for _, id := range pair.Working.Edges {
		seen[id] = true
	}
	for _, id := range pair.Protection.Edges {
		if seen[id] {
			t.Fatalf("edge %d on both paths", int(id))
		}
	}
}

func TestEdgeDisjointPairNeedsRerouting(t *testing.T) {
	// Classic Suurballe trap: the shortest path s->a->b->d uses the
	// a->b shortcut; a naive "remove it and find a second path" fails
	// because s's other out-edge leads only through b. The optimal
	// pair must undo a->b.
	g2 := New()
	s2, a2, b2, d2 := g2.AddNode("s"), g2.AddNode("a"), g2.AddNode("b"), g2.AddNode("d")
	g2.AddEdge(Edge{From: s2, To: a2, Capacity: 1, Weight: 1})
	g2.AddEdge(Edge{From: a2, To: d2, Capacity: 1, Weight: 5})
	g2.AddEdge(Edge{From: s2, To: b2, Capacity: 1, Weight: 5})
	g2.AddEdge(Edge{From: b2, To: d2, Capacity: 1, Weight: 1})
	g2.AddEdge(Edge{From: a2, To: b2, Capacity: 1, Weight: 1})
	// Shortest: s->a->b->d = 3. Disjoint pair must be s->a->d (6) +
	// s->b->d (6) = 12, forcing the algorithm to "undo" a->b.
	pair, ok := g2.EdgeDisjointShortestPair(s2, d2)
	if !ok {
		t.Fatal("no pair found")
	}
	assertDisjoint(t, pair)
	if math.Abs(pair.TotalWeight-12) > 1e-9 {
		t.Fatalf("total = %v, want 12", pair.TotalWeight)
	}
}

func TestEdgeDisjointPairNone(t *testing.T) {
	// Single bridge: no two edge-disjoint paths.
	g := New()
	s, m, d := g.AddNode("s"), g.AddNode("m"), g.AddNode("d")
	g.AddEdge(Edge{From: s, To: m, Capacity: 1, Weight: 1})
	g.AddEdge(Edge{From: m, To: d, Capacity: 1, Weight: 1})
	if _, ok := g.EdgeDisjointShortestPair(s, d); ok {
		t.Fatal("pair found across a bridge")
	}
}

func TestEdgeDisjointPairInvalid(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	if _, ok := g.EdgeDisjointShortestPair(a, a); ok {
		t.Fatal("self pair")
	}
	if _, ok := g.EdgeDisjointShortestPair(a, 9); ok {
		t.Fatal("invalid node")
	}
}

func TestEdgeDisjointPairRandomAgainstMaxFlow(t *testing.T) {
	// Property: a disjoint pair exists iff max-flow with unit
	// capacities >= 2, and when it exists both paths are valid and
	// disjoint.
	r := rng.New(17)
	for trial := 0; trial < 30; trial++ {
		g := New()
		const n = 10
		g.AddNodes(n)
		for i := 0; i < 28; i++ {
			u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
			if u == v {
				continue
			}
			g.AddEdge(Edge{From: u, To: v, Capacity: 1, Weight: r.Uniform(1, 5)})
		}
		src, dst := NodeID(0), NodeID(n-1)
		mf, err := g.MaxFlowValue(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		pair, ok := g.EdgeDisjointShortestPair(src, dst)
		if (mf >= 2-1e-9) != ok {
			t.Fatalf("trial %d: maxflow=%v but ok=%v", trial, mf, ok)
		}
		if ok {
			if err := pair.Working.Validate(g); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := pair.Protection.Validate(g); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			assertDisjoint(t, pair)
		}
	}
}
