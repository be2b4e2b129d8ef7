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
// must be identical (edges, nodes, order, nil-ness) and distances
// bit-equal. ShortestPath's Pops and Relaxations equal the reference's
// counts at the pop that settles dst; Yen's counts are held to the
// reference's by yenStatsMatch, and the one-shot delegate's to the
// reused solver's. It returns how many Yen calls grew labels for the
// twin shortcut.
func assertSolverMatchesReference(t *testing.T, g *Graph, s *PathSolver, r *rng.Source, label string) (labelled int) {
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
			if !yenStatsMatch(s, gotSt, wantSt, k) {
				t.Fatalf("%s: KShortestPaths(%d,%d,k=%d) stats %+v, reference %+v", label, src, dst, k, gotSt, wantSt)
			}
			_, labels := YenCounts(s)
			labelled += labels.Phases
			if del := g.KShortestPathsStats(src, dst, k, &delSt); !reflect.DeepEqual(del, want) || delSt != gotSt {
				t.Fatalf("%s: one-shot delegate (%d,%d,k=%d) differs from the reused solver: %+v %+v vs %+v %+v", label, src, dst, k, del, delSt, got, gotSt)
			}
		}
	}
	return labelled
}

// yenStatsMatch holds the counts of s's last KShortestPaths call to the
// reference's. Phases are exact: the reference's, less the spur searches
// the twin shortcut answered, plus the labels' one (the reverse search).
// Pops and Relaxations may exceed the reference's by the labels' own
// work only: exactly that much at k ≤ 2 when no shortcut fired (there
// every spur search runs and none repeats), at most that much
// otherwise.
func yenStatsMatch(s *PathSolver, got, want SolveStats, k int) bool {
	shortcuts, labels := YenCounts(s)
	want.Phases += labels.Phases - shortcuts
	want.Pops += labels.Pops
	want.Relaxations += labels.Relaxations
	if k <= 2 && shortcuts == 0 {
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

// TestYenReusesSpurOnTwinSwap pins the spur memo and the twin shortcut
// on the shape the augmentation makes: s→a has four equal-weight twins
// e0..e3, a→t one edge e4, and a detour a→b→t is one heavier. Path 1 is
// e0 e4, certified unique up to twins, so each spur at s — banning e0,
// then e0 e1, then e0..e2 — is answered by the shortcut with the next
// twin and no search: paths 2..4 are e1 e4, e2 e4, e3 e4. Each spur at
// a bans e4 and leaves the heap holding b at distance 1, so the second
// and third reuse the first one's tail (the memo) and count one pop
// each. The counts: 5 Phases (the first search, three spur searches at
// a, the reverse search of the labels) against the reference's 7, and
// 12 pops against 21: 3 for the first path, 4 for the labels (the first
// search's one pop past t, the reverse search's 3), 3+1+1 for the spurs
// at a.
func TestYenReusesSpurOnTwinSwap(t *testing.T) {
	g := New()
	s := g.AddNodes(4)
	a, d, b := s+1, s+2, s+3
	for range 4 {
		g.AddEdge(Edge{From: s, To: a, Capacity: 1, Weight: 1})
	}
	g.AddEdge(Edge{From: a, To: d, Capacity: 1, Weight: 1})
	g.AddEdge(Edge{From: a, To: b, Capacity: 1, Weight: 1})
	g.AddEdge(Edge{From: b, To: d, Capacity: 1, Weight: 1})
	solver := NewPathSolver(g)
	var gotSt, wantSt SolveStats
	got := solver.KShortestPaths(s, d, 4, &gotSt)
	want := g.refKShortestPaths(s, d, 4, &wantSt)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("KShortestPaths = %+v, reference %+v", got, want)
	}
	for i, p := range got {
		if !equalEdges(p.Edges, []EdgeID{EdgeID(i), 4}) {
			t.Fatalf("path %d = %v, want [%d 4]", i+1, p.Edges, i)
		}
	}
	shortcuts, labels := YenCounts(solver)
	if shortcuts != 3 || labels != (SolveStats{Phases: 1, Pops: 4, Relaxations: 7}) ||
		gotSt.Phases != 5 || wantSt.Phases != 7 || gotSt.Pops != 12 || wantSt.Pops != 21 || !yenStatsMatch(solver, gotSt, wantSt, 4) {
		t.Fatalf("stats %+v with %d shortcuts and labels %+v, reference %+v: want 5 Phases against 7, 12 pops against 21, 3 shortcuts",
			gotSt, shortcuts, labels, wantSt)
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
		if !reflect.DeepEqual(got, want) || !yenStatsMatch(s, gotSt, wantSt, k) {
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
// search" on the second. The twin shortcut's labels are grown on the
// same stamps (the first search run on, then a reverse search), so the
// calls across the wrap must grow some.
func TestPathSolverEpochWrap(t *testing.T) {
	r := rng.New(77)
	g := tieHeavyGraph(r)
	s := NewPathSolver(g)
	assertSolverMatchesReference(t, g, s, r, "lap 1") // leaves stamps 1..N behind
	s.epoch = math.MaxUint32 - 3
	if labelled := assertSolverMatchesReference(t, g, s, r, "across the wrap"); labelled == 0 {
		t.Fatal("no call across the wrap grew labels")
	}
	if s.epoch > 1<<20 {
		t.Fatalf("epoch = %d, want a small post-wrap value", s.epoch)
	}
}

// yenShortcuts checks s's KShortestPaths(src, dst, k) against the
// reference — paths reflect.DeepEqual, counts by yenStatsMatch — and
// that the twin shortcut answered exactly want spur searches.
func yenShortcuts(t *testing.T, g *Graph, src, dst NodeID, k, want int) {
	t.Helper()
	s, got := yenMatches(t, g, src, dst, k)
	if n, _ := YenCounts(s); n != want {
		t.Fatalf("%d spur searches answered by the twin shortcut, want %d (paths %+v)", n, want, got)
	}
}

// yenMatches checks a fresh solver's KShortestPaths(src, dst, k) against
// the reference — paths reflect.DeepEqual, counts by yenStatsMatch — and
// returns the solver and its paths.
func yenMatches(t *testing.T, g *Graph, src, dst NodeID, k int) (*PathSolver, []Path) {
	t.Helper()
	s := NewPathSolver(g)
	var gotSt, wantSt SolveStats
	got := s.KShortestPaths(src, dst, k, &gotSt)
	ref := g.refKShortestPaths(src, dst, k, &wantSt)
	if !reflect.DeepEqual(got, ref) || !yenStatsMatch(s, gotSt, wantSt, k) {
		t.Fatalf("KShortestPaths = %+v %+v, reference %+v %+v", got, gotSt, ref, wantSt)
	}
	return s, got
}

// twinLine builds s→a→t, the first hop as twins at weight w (one arc
// per entry of caps), the second one arc at w, and returns s, a, t.
func twinLine(g *Graph, w float64, caps ...float64) (s, a, d NodeID) {
	s = g.AddNodes(3)
	a, d = s+1, s+2
	for _, c := range caps {
		g.AddEdge(Edge{From: s, To: a, Capacity: c, Weight: w})
	}
	g.AddEdge(Edge{From: a, To: d, Capacity: 1, Weight: w})
	return s, a, d
}

// TestYenTwinShortcutHoldsBack: fixtures where the first path is not
// certified unique up to twins, or a spur's answer is not the first
// path's twin, so every spur search (or the named one) must run.
func TestYenTwinShortcutHoldsBack(t *testing.T) {
	t.Run("equal-weight detour", func(t *testing.T) {
		g := New()
		s, _, d := twinLine(g, 1, 1, 1)
		b := g.AddNode("b")
		g.AddEdge(Edge{From: s, To: b, Capacity: 1, Weight: 1})
		g.AddEdge(Edge{From: b, To: d, Capacity: 1, Weight: 1})
		yenShortcuts(t, g, s, d, 4, 0)
	})
	t.Run("near-twin", func(t *testing.T) {
		// A third s→a arc 0.3·Eps heavier is no twin, and its path is
		// within tol of the first.
		g := New()
		s, a, d := twinLine(g, 1, 1, 1)
		g.AddEdge(Edge{From: s, To: a, Capacity: 1, Weight: 1 + 0.3*Eps})
		yenShortcuts(t, g, s, d, 4, 0)
	})
	t.Run("zero-weight arcs", func(t *testing.T) {
		// a→b→t at weight 0 ties a→t at weight 0.
		g := New()
		s, a, d := twinLine(g, 0, 1, 1)
		b := g.AddNode("b")
		g.AddEdge(Edge{From: a, To: b, Capacity: 1, Weight: 0})
		g.AddEdge(Edge{From: b, To: d, Capacity: 1, Weight: 0})
		yenShortcuts(t, g, s, d, 4, 0)
	})
	t.Run("whole group banned", func(t *testing.T) {
		// Certified (the detour s→b→t is 1 heavier). The spur at s from
		// path 1 bans e0 and takes e1; the one from path 2 bans both
		// twins and must search: it finds the detour.
		g := New()
		s, _, d := twinLine(g, 1, 1, 1)
		b := g.AddNode("b")
		g.AddEdge(Edge{From: s, To: b, Capacity: 1, Weight: 1})
		g.AddEdge(Edge{From: b, To: d, Capacity: 1, Weight: 2})
		yenShortcuts(t, g, s, d, 4, 1)
	})
	t.Run("heavier parallel arc", func(t *testing.T) {
		// s→a at weight 1 (e0 e1) and at weight 3 (e2 e3, a group of
		// their own). Path 3 is e2 e4: the first path's nodes on a
		// heavier arc. Its spur at s bans e0..e2: the first path's group
		// is spent, so it must search (and find e3 e4), though e2's own
		// group keeps e3 open.
		g := New()
		s, a, d := twinLine(g, 1, 1, 1)
		g.AddEdge(Edge{From: s, To: a, Capacity: 1, Weight: 3})
		g.AddEdge(Edge{From: s, To: a, Capacity: 1, Weight: 3})
		yenShortcuts(t, g, s, d, 4, 1)
	})
}

// TestYenTwinShortcutFires: fixtures where the first path is certified
// and spur searches are answered by the shortcut — twin groups of two
// and three, members not adjacent in g.Out, a closed member, and twins
// on more than one hop.
func TestYenTwinShortcutFires(t *testing.T) {
	t.Run("pair", func(t *testing.T) {
		g := New()
		s, _, d := twinLine(g, 1, 1, 1)
		yenShortcuts(t, g, s, d, 3, 1)
	})
	t.Run("triple apart in g.Out", func(t *testing.T) {
		// s's arcs: a, c, a (closed), b, a, a; the open twins of s→a
		// are e0, e4 and e5, which the spurs at s must take in that
		// order. a→t (e6) has a twin added last (e9), and the detours
		// via b and c are heavier. All six twin swaps come out of
		// shortcuts: e4 e6 and e0 e9 from path 1's spurs, e5 e6 and
		// e4 e9 from path 2's, e5 e9 from path 3's (and again from path
		// 4's, a duplicate); the rest find their group spent.
		g := New()
		s := g.AddNodes(5)
		a, d, b, c := s+1, s+2, s+3, s+4
		sa := Edge{From: s, To: a, Capacity: 1, Weight: 1}
		g.AddEdge(sa)
		g.AddEdge(Edge{From: s, To: c, Capacity: 1, Weight: 5})
		sa.Capacity = 0
		g.AddEdge(sa)
		g.AddEdge(Edge{From: s, To: b, Capacity: 1, Weight: 7})
		sa.Capacity = 2
		g.AddEdge(sa)
		g.AddEdge(sa)
		at := Edge{From: a, To: d, Capacity: 1, Weight: 1}
		g.AddEdge(at)
		g.AddEdge(Edge{From: b, To: d, Capacity: 1, Weight: 1})
		g.AddEdge(Edge{From: c, To: d, Capacity: 1, Weight: 1})
		g.AddEdge(at)
		yenShortcuts(t, g, s, d, 6, 6)
	})
}

// TestYenDiffCandidates: fixtures for the candidates held as diffs
// against the first path, each held to the reference.
func TestYenDiffCandidates(t *testing.T) {
	t.Run("heavier parallel arc", func(t *testing.T) {
		// s→a twins e0 e1 and a→t twins e2 e3 at weight 1, a heavier
		// a→t arc e4 at weight 3, and a detour s→b→t at 3. Path 3's
		// spur at a bans e2 and e3 and finds e0 e4: the first path's
		// nodes at weight 4, which must be summed, not copied from the
		// first path (copied, it would come before the detour).
		g := New()
		s, a, d := twinLine(g, 1, 1, 1)
		g.AddEdge(Edge{From: a, To: d, Capacity: 1, Weight: 1})
		g.AddEdge(Edge{From: a, To: d, Capacity: 1, Weight: 3})
		b := g.AddNode("b")
		g.AddEdge(Edge{From: s, To: b, Capacity: 1, Weight: 1})
		g.AddEdge(Edge{From: b, To: d, Capacity: 1, Weight: 2})
		_, got := yenMatches(t, g, s, d, 6)
		if len(got) != 6 || !equalEdges(got[5].Edges, []EdgeID{0, 4}) {
			t.Fatalf("paths %+v, want e0 e4 last", got)
		}
	})
	t.Run("twin swaps repeat", func(t *testing.T) {
		// Two hops of three twins each, a0 a1 a2 and b0 b1 b2. Path 2
		// (a1 b0) spurs a2 b0 at s; path 3 (a0 b1) bans a0 and a1 at s
		// and spurs a2 b0 again, a duplicate of a waiting candidate.
		// All nine twin choices come out once each.
		g := New()
		s := g.AddNodes(3)
		for u := s; u < s+2; u++ {
			for range 3 {
				g.AddEdge(Edge{From: u, To: u + 1, Capacity: 1, Weight: 1})
			}
		}
		if _, got := yenMatches(t, g, s, s+2, 10); len(got) != 9 {
			t.Fatalf("%d paths, want 9", len(got))
		}
	})
	t.Run("ties past insertion sort", func(t *testing.T) {
		// Fourteen hops at weight 1: the even ones twin pairs, the odd
		// ones one arc and a parallel arc at weight 2. The first path's
		// spurs leave 14 candidates, seven twin swaps at its weight
		// between seven heavier paths on its nodes: more than the 12
		// sort.Sort orders by insertion, so pdqsort's unstable partition
		// decides which of the tied swaps comes first.
		g := New()
		s := g.AddNodes(15)
		for u := s; u < s+14; u++ {
			g.AddEdge(Edge{From: u, To: u + 1, Capacity: 1, Weight: 1})
			g.AddEdge(Edge{From: u, To: u + 1, Capacity: 1, Weight: float64(1 + (u-s)%2)})
		}
		sv, got := yenMatches(t, g, s, s+14, 6)
		if len(sv.cands) <= 12 || equalEdges(got[1].Edges[:1], []EdgeID{1}) {
			t.Fatalf("%d candidates left waiting and path 2 %v: want more than 12, and a swap other than the first hop's", len(sv.cands), got[1].Edges)
		}
	})
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
	NewPathSolver(g).ShortestPath(a, a+2, nil)
}

// fuzzGraph decodes data into a small tie-heavy multigraph and a Yen
// query on it. Bytes 0..3 give the node count (2..9), src, dst and k
// (1..6); every following triple (u, v, bits) adds an edge u→v at
// Weight bits&3 (so ties abound) with bits>>2&3 equal-weight twins
// after it; bit 4 closes the first arc (its twins stay open), bit 5
// adds a near-twin 0.3·Eps heavier, bit 6 puts the weight 0.4·Eps off
// an integer, and bit 7 adds a reverse edge. Self-loops are skipped.
func fuzzGraph(data []byte) (g *Graph, src, dst NodeID, k int, ok bool) {
	if len(data) < 4 {
		return nil, 0, 0, 0, false
	}
	g = New()
	n := 2 + int(data[0])%8
	g.AddNodes(n)
	src, dst, k = NodeID(int(data[1])%n), NodeID(int(data[2])%n), 1+int(data[3])%6
	for i := 4; i+2 < len(data) && g.NumEdges() < 96; i += 3 {
		u, v, bits := NodeID(int(data[i])%n), NodeID(int(data[i+1])%n), data[i+2]
		if u == v {
			continue
		}
		e := Edge{From: u, To: v, Capacity: 1, Weight: float64(bits & 3)}
		if bits&0x40 != 0 {
			e.Weight += 0.4 * Eps
		}
		first := e
		if bits&0x10 != 0 {
			first.Capacity = 0
		}
		g.AddEdge(first)
		for range bits >> 2 & 3 {
			g.AddEdge(e)
		}
		if bits&0x20 != 0 {
			near := e
			near.Weight += 0.3 * Eps
			g.AddEdge(near)
		}
		if bits&0x80 != 0 {
			e.From, e.To = v, u
			g.AddEdge(e)
		}
	}
	return g, src, dst, k, true
}

// FuzzKShortestPaths holds the kernel to the reference Yen on graphs
// decoded from bytes: path lists reflect.DeepEqual, counts by
// yenStatsMatch, and the twin shortcut answering only what a search
// would. The seed corpus — two twin ladders, one with a closed first
// arc and heavier detours, an equal-weight detour, the three diff-form
// fixtures, and random byte strings, most triples with a twin — runs
// under plain go test.
func FuzzKShortestPaths(f *testing.F) {
	f.Add([]byte{4, 0, 3, 5, 0, 1, 0x0d, 1, 2, 0x09, 2, 3, 0x05, 0, 2, 0x03})
	f.Add([]byte{5, 0, 4, 3, 0, 1, 0x05, 1, 4, 0x01, 0, 2, 0x01, 2, 4, 0x01, 1, 3, 0x20, 3, 4, 0x00})
	f.Add([]byte{6, 0, 4, 5, 0, 1, 0x09, 1, 2, 0x05, 2, 3, 0x1d, 3, 4, 0x05, 0, 5, 0x03, 5, 4, 0x03, 1, 3, 0x83})
	// Candidates held as diffs against the first path: a heavier a→t
	// arc beside a twin pair, found by a spur search and weighed by a
	// sum (s→a, a→t twins, a→t at 3, s→b→t at 3); a twin ladder whose
	// swaps repeat waiting candidates; and eight hops, alternately a
	// twin pair and an arc with a heavier parallel one, where more than
	// 12 candidates, ties among them, go to pdqsort.
	f.Add([]byte{2, 0, 2, 5, 0, 1, 0x05, 1, 2, 0x05, 1, 2, 0x03, 0, 3, 0x01, 3, 2, 0x02})
	f.Add([]byte{1, 0, 2, 5, 0, 1, 0x09, 1, 2, 0x09})
	f.Add([]byte{7, 0, 8, 5, 0, 1, 0x05, 1, 2, 0x01, 1, 2, 0x02, 2, 3, 0x05, 3, 4, 0x01, 3, 4, 0x02,
		4, 5, 0x05, 5, 6, 0x01, 5, 6, 0x02, 6, 7, 0x05, 7, 8, 0x01, 7, 8, 0x02})
	r := rng.New(0xf022)
	for range 48 {
		b := make([]byte, 4+3*(4+r.Intn(20)))
		for i := range b {
			b[i] = byte(r.Intn(256))
			if i >= 4 && i%3 == 0 && r.Bernoulli(0.7) {
				b[i] |= 0x04 // a twin, most of the time
			}
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, src, dst, k, ok := fuzzGraph(data)
		if !ok {
			return
		}
		s := NewPathSolver(g)
		var gotSt, wantSt SolveStats
		got := s.KShortestPaths(src, dst, k, &gotSt)
		want := g.refKShortestPaths(src, dst, k, &wantSt)
		if !reflect.DeepEqual(got, want) || !yenStatsMatch(s, gotSt, wantSt, k) {
			t.Fatalf("KShortestPaths(%d,%d,k=%d) = %+v %+v, reference %+v %+v", src, dst, k, got, gotSt, want, wantSt)
		}
	})
}
