package graph

import (
	"math"
	"testing"
)

// statsDiamond builds s -> {a, b} -> d with two disjoint paths, the
// upper one (via a) cheaper and shorter: Cost feeds the flow solvers,
// Weight the path kernel.
func statsDiamond(t *testing.T) (*Graph, NodeID, NodeID) {
	t.Helper()
	g := New()
	first := g.AddNodes(4)
	s, a, b, d := first, first+1, first+2, first+3
	g.AddEdge(Edge{From: s, To: a, Capacity: 10, Cost: 1, Weight: 1})
	g.AddEdge(Edge{From: s, To: b, Capacity: 10, Cost: 2, Weight: 2})
	g.AddEdge(Edge{From: a, To: d, Capacity: 10, Cost: 1, Weight: 1})
	g.AddEdge(Edge{From: b, To: d, Capacity: 10, Cost: 2, Weight: 2})
	return g, s, d
}

func TestMaxFlowReportsSolveStats(t *testing.T) {
	g, s, d := statsDiamond(t)
	res, err := g.MaxFlow(s, d, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 20 {
		t.Fatalf("value = %v, want 20", res.Value)
	}
	// Dinic ships both disjoint paths in the first level graph: two
	// augmentations, and ≥1 phase (the final phase finds no path).
	if res.Stats.Augmentations != 2 {
		t.Fatalf("augmentations = %d, want 2", res.Stats.Augmentations)
	}
	if res.Stats.Phases < 1 {
		t.Fatalf("phases = %d, want >= 1", res.Stats.Phases)
	}
}

func TestMinCostFlowReportsSolveStats(t *testing.T) {
	g, s, d := statsDiamond(t)
	res, err := g.MinCostMaxFlow(s, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 20 {
		t.Fatalf("value = %v, want 20", res.Value)
	}
	// Successive shortest paths augments once per disjoint path, and
	// runs one extra Dijkstra to prove no path remains.
	if res.Stats.Augmentations != 2 {
		t.Fatalf("augmentations = %d, want 2", res.Stats.Augmentations)
	}
	if res.Stats.Phases != 3 {
		t.Fatalf("phases = %d, want 3", res.Stats.Phases)
	}
}

func TestSolveStatsAdd(t *testing.T) {
	var s SolveStats
	s.Add(SolveStats{Phases: 2, Augmentations: 3, Pops: 10, Relaxations: 20})
	s.Add(SolveStats{Phases: 1, Augmentations: 1, Pops: 1, Relaxations: 2})
	if s.Phases != 3 || s.Augmentations != 4 || s.Pops != 11 || s.Relaxations != 22 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestMinCostFlowPinnedWorkCounts pins the exact pop and relaxation
// counts of the SSP solver on the hand-checked diamond. Derivation
// (nodes s,a,b,d; no cost is negative, so potentials start at 0; a
// phase stops when d settles and lowers the settled nodes nearer than
// d by their lead over it):
//
//	Phase 1: pop s (relax s→a, s→b), pop a (relax a→d: d=2), pop b
//	         (relax b→d: 4 does not improve 2), pop d — settled, stop.
//	         4 pops, 4 relaxations; potentials s −2, a −1, b 0, d 0;
//	         augment 10 over s→a→d.
//	Phase 2: pop s (relax s→b at reduced cost 2−2−0 = 0; s→a is
//	         saturated), pop b (relax b→d: d=2), pop d — settled, stop
//	         before the backward arcs d→a, a→s an exhaustive search
//	         went on to scan. 3 pops, 2 relaxations; augment 10 over
//	         s→b→d.
//	Phase 3: pop s, both outgoing arcs saturated — 1 pop, 0
//	         relaxations; no path, terminate.
//
// Any drift here means the solve order changed, which changes every
// rwc_work_* series downstream — exactly what this regression test is
// for.
func TestMinCostFlowPinnedWorkCounts(t *testing.T) {
	g, s, d := statsDiamond(t)
	res, err := g.MinCostMaxFlow(s, d)
	if err != nil {
		t.Fatal(err)
	}
	want := SolveStats{Phases: 3, Augmentations: 2, Pops: 8, Relaxations: 6}
	if res.Stats != want {
		t.Fatalf("stats = %+v, want %+v", res.Stats, want)
	}
}

// TestMaxFlowPinnedWorkCounts pins Dinic on the same diamond: BFS 1
// pops s,a,b,d and relaxes the four forward edges (b→d's relaxation
// finds d already leveled), then one blocking-flow pass ships both
// paths; BFS 2 pops only s (both source arcs saturated) and fails.
func TestMaxFlowPinnedWorkCounts(t *testing.T) {
	g, s, d := statsDiamond(t)
	res, err := g.MaxFlow(s, d, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	want := SolveStats{Phases: 1, Augmentations: 2, Pops: 5, Relaxations: 4}
	if res.Stats != want {
		t.Fatalf("stats = %+v, want %+v", res.Stats, want)
	}
}

// TestPathKernelPinnedWorkCounts pins the path kernel's exact counts on
// the diamond (edges e0 s→a, e1 s→b, e2 a→d, e3 b→d; weights 1,2,1,2).
//
// ShortestPathDijkstraStats(s,d): pop s (relax e0, e1), pop a (relax
// e2: d=2), pop b (relax e3: 4 does not improve 2), pop d — settled,
// stop. 4 pops, 4 relaxations; the caller owns Phases.
//
// KShortestPathsStats(s,d,k=3), one Phase per Dijkstra run:
//
//	run 1, initial:           as above                      4 pops 4 relax
//	run 2, spur s, ban e0:    pop s (e1), pop b (e3), pop d 3 pops 2 relax
//	run 3, spur a, ban e2, s: pop a, nothing open           1 pop  0 relax
//	   -> second path s→b→d (weight 4)
//	run 4, spur s, ban e0 e1: pop s, nothing open           1 pop  0 relax
//	run 5, spur b, ban e3, s: pop b, nothing open           1 pop  0 relax
//	   -> no candidate left: two paths
//
// A banned edge is skipped before it is counted, exactly like a
// zero-capacity one.
func TestPathKernelPinnedWorkCounts(t *testing.T) {
	g, s, d := statsDiamond(t)
	var sp SolveStats
	p, w, ok := g.ShortestPathDijkstraStats(s, d, &sp)
	if !ok || w != 2 || len(p.Edges) != 2 || p.Edges[0] != 0 || p.Edges[1] != 2 {
		t.Fatalf("shortest path = %+v weight %v ok %v, want e0,e2 weight 2", p, w, ok)
	}
	if want := (SolveStats{Pops: 4, Relaxations: 4}); sp != want {
		t.Fatalf("ShortestPathDijkstraStats stats = %+v, want %+v", sp, want)
	}
	var ksp SolveStats
	if paths := g.KShortestPathsStats(s, d, 3, &ksp); len(paths) != 2 {
		t.Fatalf("k-shortest paths = %+v, want 2", paths)
	}
	if want := (SolveStats{Phases: 5, Pops: 10, Relaxations: 6}); ksp != want {
		t.Fatalf("KShortestPathsStats stats = %+v, want %+v", ksp, want)
	}
}

// TestPathKernelEarlyExitLowersCounts hangs a tail d→x off the diamond:
// a search for d now has somewhere to go after settling it, and the
// kernel does not go there. Each of the two runs that reach d (runs 1
// and 2 above) saves the relaxation of d→x and the pop of x that the
// reference's full Dijkstra pays; runs that exhaust the graph without
// reaching d cost the same; Phases — one per run — cannot move.
func TestPathKernelEarlyExitLowersCounts(t *testing.T) {
	g, s, d := statsDiamond(t)
	x := g.AddNode("x")
	g.AddEdge(Edge{From: d, To: x, Capacity: 10, Weight: 1})

	var got, full SolveStats
	paths := g.KShortestPathsStats(s, d, 3, &got)
	ref := g.refKShortestPaths(s, d, 3, &full)
	if len(paths) != 2 || len(ref) != 2 {
		t.Fatalf("paths = %+v, reference %+v, want 2 each", paths, ref)
	}
	if want := (SolveStats{Phases: 5, Pops: 10, Relaxations: 6}); got != want {
		t.Fatalf("kernel stats = %+v, want %+v", got, want)
	}
	if want := (SolveStats{Phases: 5, Pops: 12, Relaxations: 8}); full != want {
		t.Fatalf("full-search reference stats = %+v, want %+v", full, want)
	}
}
