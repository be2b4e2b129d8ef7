package graph

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// tieHeavyGraph builds the kind of multigraph the TE layer feeds the
// kernel: small-integer weights (so equal-weight alternatives abound),
// one or two equal-weight parallel twins beside most edges (the
// augmentation's fake edge; groups of three too), a share of
// zero-capacity edges (fakes with nothing to offer, dark links, a closed
// first arc whose twins are open), the odd zero-weight edge, a few
// weights a fraction of Eps off an integer (so the Eps-tolerant
// relaxation decides, not plain <), near-twins a fraction of Eps off
// their edge's weight (same head, so only bit equality keeps them out of
// its twin group), twins added after other edges of the same tail (so
// a group's arcs are not adjacent in g.Out), and few enough edges that
// some pairs are unreachable.
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
		for twins := r.Intn(3); twins > 0; twins-- {
			twin := e
			twin.Capacity = float64(r.Intn(3)) // 0 = an idle fake
			g.AddEdge(twin)
		}
		if r.Bernoulli(0.1) {
			near := e
			near.Capacity = 1
			near.Weight += 0.3 * Eps
			g.AddEdge(near)
		}
		if r.Bernoulli(0.3) { // reverse direction, as WAN links are duplex
			e.From, e.To = v, u
			g.AddEdge(e)
		}
	}
	for i, m := 0, g.NumEdges(); i < m/4; i++ {
		twin := g.edges[r.Intn(m)]
		twin.Capacity = float64(1 + r.Intn(2))
		g.AddEdge(twin)
	}
	return g
}

// assertSolverMatchesReference compares one reused solver, and the
// one-shot Graph delegates, against the pre-kernel reference: the
// single shortest path for every ordered node pair, and Yen for k =
// 1..6 on a random sample of pairs (src == dst included). Path lists
// must be identical (edges, nodes, order, nil-ness), distances bit-equal,
// and Phases equal to the reference's. Pops and Relaxations equal the
// reference's counts at the pop that settles dst for ShortestPath and
// for Yen at k ≤ 2, where every spur search has its own root; from
// k = 3 on, a spur search that repeats one of the same call skips its
// settle step, so they may only be lower.
func assertSolverMatchesReference(t *testing.T, g *Graph, s *PathSolver, r *rng.Source, label string) {
	t.Helper()
	n := g.NumNodes()
	for src := NodeID(0); int(src) < n; src++ {
		for dst := NodeID(0); int(dst) < n; dst++ {
			var wantSt, gotSt SolveStats
			wantP, wantD, wantOK := g.refShortestPath(src, dst, &wantSt)
			gotP, gotD, gotOK := s.ShortestPath(src, dst, &gotSt)
			if gotOK != wantOK || math.Float64bits(gotD) != math.Float64bits(wantD) || !reflect.DeepEqual(gotP, wantP) {
				t.Fatalf("%s: ShortestPath(%d,%d) = %+v %v %v, reference %+v %v %v", label, src, dst, gotP, gotD, gotOK, wantP, wantD, wantOK)
			}
			if gotSt != wantSt {
				t.Fatalf("%s: ShortestPath(%d,%d) stats %+v, reference %+v", label, src, dst, gotSt, wantSt)
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
			if !yenStatsMatch(gotSt, wantSt, k) {
				t.Fatalf("%s: KShortestPaths(%d,%d,k=%d) stats %+v, reference %+v", label, src, dst, k, gotSt, wantSt)
			}
			if del := g.KShortestPathsStats(src, dst, k, &delSt); !reflect.DeepEqual(del, want) || delSt != gotSt {
				t.Fatalf("%s: one-shot delegate (%d,%d,k=%d) differs from the reused solver: %+v %+v vs %+v %+v", label, src, dst, k, del, delSt, got, gotSt)
			}
		}
	}
}

// yenStatsMatch holds KShortestPaths' counts to the reference's: the
// same Phases always, the same Pops and Relaxations for k ≤ 2, and no
// more of either from k = 3 on.
func yenStatsMatch(got, want SolveStats, k int) bool {
	if k <= 2 {
		return got == want
	}
	return got.Phases == want.Phases && got.Augmentations == want.Augmentations &&
		got.Pops <= want.Pops && got.Relaxations <= want.Relaxations
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

// TestYenReusesSpurOnTwinSwap pins the spur memo on the shape the
// augmentation makes: s→a has four equal-weight twins e0..e3 and a→t
// one edge e4. Path 2 is path 1 with e0 swapped for its twin e1, found
// by the spur at s that bans e0. The spur at s from path 2 bans e0 and
// e1 and the one from path 3 bans e0..e2: each leaves the heap holding
// a at distance 1, as path 1's did, so both reuse its tail e4 and must
// take their first arc from their own relaxation — e2, then e3, where
// the stored search had e1. The spurs at a repeat too (no arc left).
// Reused spurs count one pop each, so 11 pops against the reference's
// 15, with the same 7 Phases.
func TestYenReusesSpurOnTwinSwap(t *testing.T) {
	g := New()
	s := g.AddNodes(3)
	a, d := s+1, s+2
	for range 4 {
		g.AddEdge(Edge{From: s, To: a, Capacity: 1, Weight: 1})
	}
	g.AddEdge(Edge{From: a, To: d, Capacity: 1, Weight: 1})
	var gotSt, wantSt SolveStats
	got := NewPathSolver(g).KShortestPaths(s, d, 4, &gotSt)
	want := g.refKShortestPaths(s, d, 4, &wantSt)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("KShortestPaths = %+v, reference %+v", got, want)
	}
	for i, p := range got {
		if !equalEdges(p.Edges, []EdgeID{EdgeID(i), 4}) {
			t.Fatalf("path %d = %v, want [%d 4]", i+1, p.Edges, i)
		}
	}
	if gotSt.Phases != 7 || wantSt.Phases != 7 || gotSt.Pops != 11 || wantSt.Pops != 15 {
		t.Fatalf("stats %+v, reference %+v: want 7 Phases each and 11 pops against 15", gotSt, wantSt)
	}
}

// TestYenSpurKeyHoldsRootNodes pins why a spur search's key holds its
// banned root nodes and not just the spur node and heap. From 3 to 4
// the loopless paths are 3-0-4, 3-2-4 (weight 4 each), 3-0-2-4 (7) and
// 3-2-1-0-4 (9). The spur at 2 from 3-0-2-4 bans 3 and 0 and leaves 1
// on the heap at distance 3, as the spur at 2 from 3-2-4 did with only
// 3 banned; that earlier search reached 4 through 0. Reusing it would
// return the looped 3-0-2-1-0-4 as a fifth path.
func TestYenSpurKeyHoldsRootNodes(t *testing.T) {
	g := New()
	g.AddNodes(5)
	for _, e := range [][3]int{{3, 0, 2}, {0, 4, 2}, {0, 2, 3}, {3, 2, 2}, {2, 1, 3}, {2, 4, 2}, {1, 0, 2}} {
		g.AddEdge(Edge{From: NodeID(e[0]), To: NodeID(e[1]), Capacity: 1, Weight: float64(e[2])})
	}
	s := NewPathSolver(g)
	for k := 1; k <= 6; k++ {
		var gotSt, wantSt SolveStats
		got := s.KShortestPaths(3, 4, k, &gotSt)
		want := g.refKShortestPaths(3, 4, k, &wantSt)
		if !reflect.DeepEqual(got, want) || !yenStatsMatch(gotSt, wantSt, k) {
			t.Fatalf("k=%d: KShortestPaths = %+v %+v, reference %+v %+v", k, got, gotSt, want, wantSt)
		}
	}
}

// TestPathSolverNearTwinsStayApart pins why twin groups key on Weight
// bits and not on an Eps tolerance. u→v has a first arc 0.5·Eps heavier
// than its second, and s→v reaches v at 2+1.2·Eps first: the heavier
// arc fails nd+Eps < dist at 2+0.5·Eps, the lighter one passes at 2, so
// the path must end on the second arc — as the reference has it.
func TestPathSolverNearTwinsStayApart(t *testing.T) {
	g := New()
	s := g.AddNodes(3)
	u, v := s+1, s+2
	su := g.AddEdge(Edge{From: s, To: u, Capacity: 1, Weight: 1})
	g.AddEdge(Edge{From: s, To: v, Capacity: 1, Weight: 2 + 1.2*Eps})
	g.AddEdge(Edge{From: u, To: v, Capacity: 1, Weight: 1 + 0.5*Eps})
	light := g.AddEdge(Edge{From: u, To: v, Capacity: 1, Weight: 1})
	want, _, _ := g.refShortestPath(s, v, nil)
	got, _, ok := NewPathSolver(g).ShortestPath(s, v, nil)
	if !ok || !reflect.DeepEqual(got, want) || !equalEdges(got.Edges, []EdgeID{su, light}) {
		t.Fatalf("ShortestPath = %+v, reference %+v, want edges %v", got, want, []EdgeID{su, light})
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
