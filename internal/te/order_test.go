package te

import (
	"testing"

	"repro/internal/graph"
)

// bottleneckLine builds a->b->c where b->c is the 100-unit bottleneck.
func bottleneckLine() (*graph.Graph, [3]graph.NodeID) {
	g := graph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddEdge(graph.Edge{From: a, To: b, Capacity: 100, Weight: 1})
	g.AddEdge(graph.Edge{From: b, To: c, Capacity: 100, Weight: 1})
	return g, [3]graph.NodeID{a, b, c}
}

// Results slice stays aligned with input order, and an empty demand set
// costs no work (k-path runs no water-fill sweep).
func TestResultsAlignWithInputOrder(t *testing.T) {
	g, n := bottleneckLine()
	demands := []Demand{
		{Src: n[1], Dst: n[2], Volume: 10},
		{Src: n[0], Dst: n[2], Volume: 20},
	}
	for _, alg := range []Algorithm{ShortestPath{}, Greedy{}, KPath{}} {
		alloc, err := alg.Allocate(g, demands)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		for i := range demands {
			if alloc.Results[i].Demand != demands[i] {
				t.Fatalf("%s: result %d holds %+v", alg.Name(), i, alloc.Results[i].Demand)
			}
		}
		empty, err := alg.Allocate(g, nil)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if empty.Solver != (SolverStats{}) {
			t.Fatalf("%s: no demands cost %+v", alg.Name(), empty.Solver)
		}
	}
}
