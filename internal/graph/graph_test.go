package graph

import (
	"testing"
)

// line builds a simple path graph a->b->c->... with given capacity.
func line(t *testing.T, n int, capacity float64) (*Graph, []NodeID) {
	t.Helper()
	g := New()
	nodes := make([]NodeID, n)
	for i := range nodes {
		nodes[i] = g.AddNode(string(rune('a' + i)))
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(Edge{From: nodes[i], To: nodes[i+1], Capacity: capacity, Weight: 1})
	}
	return g, nodes
}

func TestAddNodeEdgeBasics(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	if g.NumNodes() != 2 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	id := g.AddEdge(Edge{From: a, To: b, Capacity: 10, Cost: 2, Weight: 3, Label: "x"})
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	e := g.Edge(id)
	if e.From != a || e.To != b || e.Capacity != 10 || e.Cost != 2 || e.Weight != 3 || e.Label != "x" {
		t.Fatalf("edge mismatch: %+v", e)
	}
	if len(g.Out(a)) != 1 || len(g.Out(b)) != 0 {
		t.Fatal("adjacency broken")
	}
	if g.NodeName(a) != "a" {
		t.Fatal("node name")
	}
}

func TestAddNodes(t *testing.T) {
	g := New()
	first := g.AddNodes(5)
	if first != 0 || g.NumNodes() != 5 {
		t.Fatalf("AddNodes: first=%d n=%d", first, g.NumNodes())
	}
}

func TestParallelEdges(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	e1 := g.AddEdge(Edge{From: a, To: b, Capacity: 5})
	e2 := g.AddEdge(Edge{From: a, To: b, Capacity: 7})
	if e1 == e2 {
		t.Fatal("parallel edges share an ID")
	}
	if len(g.Out(a)) != 2 {
		t.Fatal("parallel edges not both in adjacency")
	}
	v, err := g.MaxFlowValue(a, b)
	if err != nil || v != 12 {
		t.Fatalf("max flow over parallel edges = %v (err %v), want 12", v, err)
	}
}

func TestAddEdgePanics(t *testing.T) {
	cases := []Edge{
		{From: 0, To: 5, Capacity: 1},  // unknown node
		{From: 0, To: 1, Capacity: -1}, // negative capacity
	}
	for _, e := range cases {
		func() {
			g := New()
			g.AddNode("a")
			g.AddNode("b")
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge(%+v) did not panic", e)
				}
			}()
			g.AddEdge(e)
		}()
	}
}

func TestSetCapacityCost(t *testing.T) {
	g, nodes := line(t, 2, 10)
	_ = nodes
	g.SetCapacity(0, 42)
	if g.Edge(0).Capacity != 42 {
		t.Fatal("SetCapacity did not stick")
	}
	g.SetCost(0, -3)
	if g.Edge(0).Cost != -3 {
		t.Fatal("SetCost did not stick")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetCapacity(-1) did not panic")
			}
		}()
		g.SetCapacity(0, -1)
	}()
}

func TestCloneIsDeep(t *testing.T) {
	g, _ := line(t, 3, 10)
	c := g.Clone()
	c.SetCapacity(0, 1)
	if g.Edge(0).Capacity != 10 {
		t.Fatal("clone shares edge storage")
	}
	c.AddNode("extra")
	if g.NumNodes() != 3 {
		t.Fatal("clone shares node storage")
	}
}

func TestTotalCapacity(t *testing.T) {
	g, _ := line(t, 4, 5)
	if g.TotalCapacity() != 15 {
		t.Fatalf("total capacity = %v", g.TotalCapacity())
	}
}

func TestPathValidate(t *testing.T) {
	g, nodes := line(t, 3, 1)
	good := Path{Edges: []EdgeID{0, 1}, Nodes: []NodeID{nodes[0], nodes[1], nodes[2]}}
	if err := good.Validate(g); err != nil {
		t.Fatalf("valid path rejected: %v", err)
	}
	bad := Path{Edges: []EdgeID{1, 0}, Nodes: []NodeID{nodes[0], nodes[1], nodes[2]}}
	if err := bad.Validate(g); err == nil {
		t.Fatal("disconnected path accepted")
	}
	short := Path{Edges: []EdgeID{0}, Nodes: []NodeID{nodes[0]}}
	if err := short.Validate(g); err == nil {
		t.Fatal("wrong node count accepted")
	}
	unknown := Path{Edges: []EdgeID{99}, Nodes: []NodeID{nodes[0], nodes[1]}}
	if err := unknown.Validate(g); err == nil {
		t.Fatal("unknown edge accepted")
	}
}

func TestNodeNameInvalid(t *testing.T) {
	g := New()
	if g.NodeName(5) != "invalid(5)" {
		t.Fatal("invalid node name")
	}
}

func TestEdgePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Edge(99) did not panic")
		}
	}()
	New().Edge(99)
}

func TestEdgesReturnsCopy(t *testing.T) {
	g, _ := line(t, 2, 10)
	es := g.Edges()
	es[0].Capacity = 0
	if g.Edge(0).Capacity != 10 {
		t.Fatal("Edges leaked internal state")
	}
}
