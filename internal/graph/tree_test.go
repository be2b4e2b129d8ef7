package graph

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// treeCase draws what one Tree call takes on g: a length per edge — a
// small integer times unit, so ties abound at any scale — and one to
// four sinks, repeats and the source itself allowed.
func treeCase(r *rng.Source, g *Graph, unit float64) (length []float64, sinks []NodeID) {
	length = make([]float64, g.NumEdges())
	for id := range length {
		length[id] = unit * float64(r.Intn(4))
	}
	for i, k := 0, 1+r.Intn(4); i < k; i++ {
		sinks = append(sinks, NodeID(r.Intn(g.NumNodes())))
	}
	return length, sinks
}

// assertTreeMatchesSingleSink grows the tree from every source for a
// random sink set and holds each sink's path against the early-exit
// search for that sink alone on the same lengths (a second solver, so
// neither run sees the other's stamps). With exact set, it also holds
// reachability and paths against the reference's full Dijkstra — valid
// only for integer lengths, where the reference's Eps-tolerant
// relaxation and Tree's strict one decide alike.
func assertTreeMatchesSingleSink(t *testing.T, g *Graph, multi, single *PathSolver, r *rng.Source, unit float64, exact bool, label string) {
	t.Helper()
	for src := NodeID(0); int(src) < g.NumNodes(); src++ {
		length, sinks := treeCase(r, g, unit)
		var full, treeSt SolveStats
		dist, prevEdge := g.refDijkstraAll(src, NoNode, func(e Edge) (float64, bool) {
			return length[e.ID], e.Capacity > Eps
		}, &full)
		all := multi.Tree(src, sinks, length, &treeSt)
		if exact && (treeSt.Pops > full.Pops || treeSt.Relaxations > full.Relaxations) {
			t.Fatalf("%s: Tree(%d,%v) stats %+v above the full search's %+v", label, src, sinks, treeSt, full)
		}
		wantAll := true
		for _, sink := range sinks {
			var oneSt SolveStats
			reached := single.Tree(src, []NodeID{sink}, length, &oneSt)
			wantAll = wantAll && reached
			if multi.Settled(sink) != reached {
				t.Fatalf("%s: Tree(%d,%v) settled %d = %v, alone %v", label, src, sinks, sink, multi.Settled(sink), reached)
			}
			if exact && reached == math.IsInf(dist[sink], 1) {
				t.Fatalf("%s: Tree(%d,[%d]) reached = %v, reference distance %v", label, src, sink, reached, dist[sink])
			}
			if !reached {
				continue
			}
			got, want := multi.AppendPath(nil, src, sink), single.AppendPath(nil, src, sink)
			if !equalEdges(got, want) {
				t.Fatalf("%s: Tree(%d,%v) path to %d = %v, alone %v", label, src, sinks, sink, got, want)
			}
			var sum float64
			for _, id := range got {
				sum += length[id]
			}
			if d := multi.Dist(sink); math.Float64bits(d) != math.Float64bits(sum) {
				t.Fatalf("%s: Tree(%d,%v) Dist(%d) = %v, its path's length %v", label, src, sinks, sink, d, sum)
			}
			if exact && !equalEdges(got, g.reconstruct(src, sink, prevEdge).Edges) {
				t.Fatalf("%s: Tree(%d,%v) path to %d = %v, reference %v", label, src, sinks, sink, got, g.reconstruct(src, sink, prevEdge).Edges)
			}
			if oneSt.Pops > treeSt.Pops || oneSt.Relaxations > treeSt.Relaxations {
				t.Fatalf("%s: Tree(%d,[%d]) stats %+v above those of the tree to %v, %+v", label, src, sink, oneSt, sinks, treeSt)
			}
		}
		if all != wantAll {
			t.Fatalf("%s: Tree(%d,%v) = %v, want %v", label, src, sinks, all, wantAll)
		}
	}
}

// TestTreeMatchesSingleSinkSearch is the tree kernel's differential
// test: on tie-heavy random multigraphs, stopping only when several
// sinks are settled leaves every one of them the path its own
// early-exit search finds — at integer lengths, which the reference
// Dijkstra can check too, and at Garg–Könemann's 1e-30 scale, where
// only a strict comparison still tells paths apart.
func TestTreeMatchesSingleSinkSearch(t *testing.T) {
	graphs := 300
	if testing.Short() {
		graphs = 40
	}
	r := rng.New(0x73ee)
	for gi := 0; gi < graphs; gi++ {
		g := tieHeavyGraph(r)
		multi, single := NewPathSolver(g), NewPathSolver(g)
		assertTreeMatchesSingleSink(t, g, multi, single, r, 1, true, "integer")
		assertTreeMatchesSingleSink(t, g, multi, single, r, 1e-30, false, "tiny")
	}
}

// TestTreeInterleavesWithYen: Tree shares the solver's epoch, heap and
// node stamps with the Weight searches, so using one solver for both
// must not leak state either way.
func TestTreeInterleavesWithYen(t *testing.T) {
	r := rng.New(0x1eaf)
	g := tieHeavyGraph(r)
	s, single := NewPathSolver(g), NewPathSolver(g)
	assertTreeMatchesSingleSink(t, g, s, single, r, 1, true, "before")
	assertSolverMatchesReference(t, g, s, r, "after trees")
	assertTreeMatchesSingleSink(t, g, s, single, r, 1, true, "after Yen")
}

// TestTreeStaleMaskUntilRefresh: like the Weight searches, Tree answers
// for the capacities the solver last read.
func TestTreeStaleMaskUntilRefresh(t *testing.T) {
	g := New()
	a := g.AddNodes(2)
	id := g.AddEdge(Edge{From: a, To: a + 1, Capacity: 1})
	s := NewPathSolver(g)
	g.SetCapacity(id, 0)
	if !s.Tree(a, []NodeID{a + 1}, []float64{1}, nil) {
		t.Fatal("tree dropped an edge before Refresh")
	}
	s.Refresh()
	if s.Tree(a, []NodeID{a + 1}, []float64{1}, nil) || s.Settled(a+1) {
		t.Fatal("tree kept a zero-capacity edge after Refresh")
	}
}

// TestTreeEpochWrap drives Tree over the uint32 epoch wrap: a sink mark
// or settled stamp from the first lap must not read as current.
func TestTreeEpochWrap(t *testing.T) {
	r := rng.New(78)
	g := tieHeavyGraph(r)
	multi, single := NewPathSolver(g), NewPathSolver(g)
	assertTreeMatchesSingleSink(t, g, multi, single, r, 1, true, "lap 1")
	multi.epoch = math.MaxUint32 - 3
	assertTreeMatchesSingleSink(t, g, multi, single, r, 1, true, "across the wrap")
	if multi.epoch > 1<<20 {
		t.Fatalf("epoch = %d, want a small post-wrap value", multi.epoch)
	}
}

// TestTreeNegativeLengthPanics: caller-supplied lengths get the same
// guard as edge weights, without the −Eps allowance.
func TestTreeNegativeLengthPanics(t *testing.T) {
	g := New()
	a := g.AddNodes(2)
	g.AddEdge(Edge{From: a, To: a + 1, Capacity: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on a negative edge length")
		}
	}()
	NewPathSolver(g).Tree(a, []NodeID{a + 1}, []float64{-1e-30}, nil)
}

// TestTreePinnedWorkCounts pins Tree's exact counts on the diamond
// (edges e0 s→a, e1 s→b, e2 a→d, e3 b→d; lengths 1,2,1,2), by sink set:
//
//	{d}:    pop s (e0, e1), pop a (e2), pop b (e3), pop d — stop  4 pops 4 relax
//	{a}:    pop s (e0, e1), pop a — stop                          2 pops 2 relax
//	{a,b}:  pop s (e0, e1), pop a (e2), pop b — stop              3 pops 3 relax
//	{b,d}:  as {d}: b is settled on the way                       4 pops 4 relax
//	{d,d}:  a repeated sink is one sink                           4 pops 4 relax
//
// The last sink settled is not scanned, exactly as search does not scan
// dst.
func TestTreePinnedWorkCounts(t *testing.T) {
	g, s, d := statsDiamond(t)
	a, b := s+1, s+2
	length := []float64{1, 2, 1, 2}
	solver := NewPathSolver(g)
	for _, tc := range []struct {
		sinks []NodeID
		want  SolveStats
	}{
		{[]NodeID{d}, SolveStats{Pops: 4, Relaxations: 4}},
		{[]NodeID{a}, SolveStats{Pops: 2, Relaxations: 2}},
		{[]NodeID{a, b}, SolveStats{Pops: 3, Relaxations: 3}},
		{[]NodeID{b, d}, SolveStats{Pops: 4, Relaxations: 4}},
		{[]NodeID{d, d}, SolveStats{Pops: 4, Relaxations: 4}},
	} {
		var st SolveStats
		if !solver.Tree(s, tc.sinks, length, &st) {
			t.Fatalf("Tree(s,%v) did not reach its sinks", tc.sinks)
		}
		if st != tc.want {
			t.Fatalf("Tree(s,%v) stats = %+v, want %+v", tc.sinks, st, tc.want)
		}
	}
	if got := solver.AppendPath(nil, s, d); !equalEdges(got, []EdgeID{0, 2}) {
		t.Fatalf("path to d = %v, want e0,e2", got)
	}
}
