package graph

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// tieHeavyGraph builds the kind of multigraph the TE layer feeds the
// kernel: small-integer weights (so equal-weight alternatives abound),
// an equal-weight parallel twin beside roughly half the edges (the
// augmentation's fake edge), a share of zero-capacity edges (fakes with
// nothing to offer, dark links), the odd zero-weight edge, a few weights
// a fraction of Eps off an integer (so the Eps-tolerant relaxation
// decides, not plain <), and few enough edges that some pairs are
// unreachable.
func tieHeavyGraph(r *rng.Source) *Graph {
	g := New()
	n := 4 + r.Intn(14)
	g.AddNodes(n)
	for i, m := 0, n+r.Intn(3*n); i < m; i++ {
		u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
		if u == v {
			continue
		}
		e := Edge{From: u, To: v, Capacity: float64(1 + r.Intn(5)), Weight: float64(r.Intn(4))}
		if r.Bernoulli(0.15) {
			e.Capacity = 0
		}
		if r.Bernoulli(0.1) {
			e.Weight += 0.4 * Eps
		}
		g.AddEdge(e)
		if r.Bernoulli(0.5) {
			twin := e
			twin.Capacity = float64(r.Intn(3)) // 0 = an idle fake
			g.AddEdge(twin)
		}
		if r.Bernoulli(0.3) { // reverse direction, as WAN links are duplex
			e.From, e.To = v, u
			g.AddEdge(e)
		}
	}
	return g
}

// assertSolverMatchesReference compares one reused solver, and the
// one-shot Graph delegates, against the pre-kernel reference: the
// single shortest path for every ordered node pair, and Yen for k =
// 1..6 on a random sample of pairs (src == dst included). Path lists
// must be identical (edges, nodes, order, nil-ness), distances bit-equal,
// Phases equal, and Pops/Relaxations never above the reference's full
// searches.
func assertSolverMatchesReference(t *testing.T, g *Graph, s *PathSolver, r *rng.Source, label string) {
	t.Helper()
	n := g.NumNodes()
	for src := NodeID(0); int(src) < n; src++ {
		for dst := NodeID(0); int(dst) < n; dst++ {
			wantP, wantD, wantOK := g.refShortestPath(src, dst, nil)
			gotP, gotD, gotOK := s.ShortestPath(src, dst, nil)
			if gotOK != wantOK || math.Float64bits(gotD) != math.Float64bits(wantD) || !reflect.DeepEqual(gotP, wantP) {
				t.Fatalf("%s: ShortestPath(%d,%d) = %+v %v %v, reference %+v %v %v", label, src, dst, gotP, gotD, gotOK, wantP, wantD, wantOK)
			}
		}
	}
	for pair := 0; pair < 16; pair++ {
		src, dst := NodeID(r.Intn(n)), NodeID(r.Intn(n))
		for k := 1; k <= 6; k++ {
			var wantSt, gotSt, delSt SolveStats
			want := g.refKShortestPaths(src, dst, k, &wantSt)
			got := s.KShortestPaths(src, dst, k, &gotSt)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: KShortestPaths(%d,%d,k=%d)\n got %+v\nwant %+v", label, src, dst, k, got, want)
			}
			if gotSt.Phases != wantSt.Phases || gotSt.Pops > wantSt.Pops || gotSt.Relaxations > wantSt.Relaxations {
				t.Fatalf("%s: KShortestPaths(%d,%d,k=%d) stats %+v vs reference %+v: Phases must match, Pops/Relaxations may only fall", label, src, dst, k, gotSt, wantSt)
			}
			if del := g.KShortestPathsStats(src, dst, k, &delSt); !reflect.DeepEqual(del, want) || delSt != gotSt {
				t.Fatalf("%s: one-shot delegate (%d,%d,k=%d) differs from the reused solver: %+v %+v vs %+v %+v", label, src, dst, k, del, delSt, got, gotSt)
			}
		}
	}
}

// TestPathSolverMatchesReferenceYen is the differential oracle for the
// kernel's hard constraint: on 300 random tie-heavy multigraphs the
// scratch-reusing, early-exit kernel returns path lists
// reflect.DeepEqual to the map/closure Yen it replaced — before and
// after a capacity churn the solver absorbs through Refresh.
func TestPathSolverMatchesReferenceYen(t *testing.T) {
	graphs := 300
	if testing.Short() {
		graphs = 40
	}
	r := rng.New(0x9e17)
	for gi := 0; gi < graphs; gi++ {
		g := tieHeavyGraph(r)
		s := NewPathSolver(g)
		assertSolverMatchesReference(t, g, s, r, "fresh")

		// Churn: close some edges, open some closed ones, as a TE round's
		// SNR-driven capacity changes do, and reuse the same solver.
		for id := 0; id < g.NumEdges(); id++ {
			if r.Bernoulli(0.2) {
				c := 0.0
				if g.edges[id].Capacity <= Eps {
					c = 2
				}
				g.SetCapacity(EdgeID(id), c)
			}
		}
		s.Refresh()
		assertSolverMatchesReference(t, g, s, r, "refreshed")
	}
}

// TestPathSolverStaleMaskUntilRefresh pins the Refresh contract: the
// solver answers for the capacities it last read, and picks up a change
// only at the next Refresh.
func TestPathSolverStaleMaskUntilRefresh(t *testing.T) {
	g := New()
	a := g.AddNodes(2)
	id := g.AddEdge(Edge{From: a, To: a + 1, Capacity: 1, Weight: 1})
	s := NewPathSolver(g)
	g.SetCapacity(id, 0)
	if _, _, ok := s.ShortestPath(a, a+1, nil); !ok {
		t.Fatal("solver dropped an edge before Refresh")
	}
	s.Refresh()
	if _, _, ok := s.ShortestPath(a, a+1, nil); ok {
		t.Fatal("solver kept a zero-capacity edge after Refresh")
	}
}

// TestPathSolverEpochWrap drives the epoch counter over its uint32
// wrap: stamps from the first lap must not read as "set in this
// search" on the second.
func TestPathSolverEpochWrap(t *testing.T) {
	r := rng.New(77)
	g := tieHeavyGraph(r)
	s := NewPathSolver(g)
	assertSolverMatchesReference(t, g, s, r, "lap 1") // leaves stamps 1..N behind
	s.epoch = math.MaxUint32 - 3
	assertSolverMatchesReference(t, g, s, r, "across the wrap")
	if s.epoch > 1<<20 {
		t.Fatalf("epoch = %d, want a small post-wrap value", s.epoch)
	}
}

// TestPathSolverGrowsWithGraph: a Refresh after nodes and edges were
// added rebinds the scratch to the new structure.
func TestPathSolverGrowsWithGraph(t *testing.T) {
	r := rng.New(5)
	g := tieHeavyGraph(r)
	s := NewPathSolver(g)
	first := g.AddNodes(2)
	g.AddEdge(Edge{From: 0, To: first, Capacity: 1, Weight: 1})
	g.AddEdge(Edge{From: first, To: first + 1, Capacity: 1, Weight: 1})
	s.Refresh()
	assertSolverMatchesReference(t, g, s, r, "grown")
}

// TestPathSolverNegativeWeightPanics keeps the kernel's guard: a
// negative length on an examined edge is a construction bug.
func TestPathSolverNegativeWeightPanics(t *testing.T) {
	g := New()
	a := g.AddNodes(3)
	g.AddEdge(Edge{From: a, To: a + 1, Capacity: 1, Weight: -1})
	g.AddEdge(Edge{From: a + 1, To: a + 2, Capacity: 1, Weight: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on a negative edge weight")
		}
	}()
	g.ShortestPathDijkstra(a, a+2)
}
