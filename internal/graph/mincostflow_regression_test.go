package graph

// Regression tests for the successive-shortest-path potential update
// (ISSUE 3). A rule that advances only the nodes a phase settled, by
// their own distances, leaves every other node's potential stale; when
// a later phase scans an arc out of such a node into an advanced one,
// the Dijkstra scan sees a negative reduced cost and MinCostFlow aborts
// with a spurious "negative reduced cost" error. The kernel's rule —
// pot[v] += dist[v] - dist[dst] over the settled nodes nearer than the
// sink — is the capped rule pot[v] += min(dist[v], dist[dst]) over all
// nodes minus a constant, which keeps every open arc at rc >= 0.

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

// TestSolveStalePotentialSequence drives the stale-potential phase
// sequence through Solve. Phase 1 settles s, a and d (dist 0, 1, 2) and
// stops; x, at tentative distance 5, is left unsettled while a advances.
// Phase 2 must go through x and scans x->a (cost 0): under the broken
// rule pot[x] stays 0 while pot[a] has advanced to 1, rc = 0 + 0 - 1 < 0
// and the solve aborts. Under the kernel's rule pot = (s -2, a -1, x 0,
// d 0) after phase 1, so rc(x->a) = 1 and rc(s->x) = 3, rc(x->d) = 2
// put d at reduced distance 5 = true cost 7 less the 2 already folded.
func TestSolveStalePotentialSequence(t *testing.T) {
	g := New()
	first := g.AddNodes(4)
	s, a, x, d := first, first+1, first+2, first+3
	g.AddEdge(Edge{From: s, To: a, Capacity: 1, Cost: 1})
	g.AddEdge(Edge{From: a, To: d, Capacity: 1, Cost: 1})
	g.AddEdge(Edge{From: s, To: x, Capacity: 5, Cost: 5})
	g.AddEdge(Edge{From: x, To: d, Capacity: 5, Cost: 2})
	g.AddEdge(Edge{From: x, To: a, Capacity: 5, Cost: 0})

	solver := NewMCFSolver(g)
	res, err := solver.Solve(s, d, math.Inf(1), nil, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// 1 unit over s->a->d at cost 2, then 5 over s->x->d at cost 7.
	if !stats.ApproxInDelta(res.Value, 6, 1e-9) || !stats.ApproxInDelta(res.Cost, 37, 1e-9) {
		t.Fatalf("value %v cost %v, want 6 and 37", res.Value, res.Cost)
	}
	// Potentials after the last successful phase, by hand: phase 2 has
	// dist s 0, x 3, a 4 (over x->a), d 5, so s falls to -2 + (0 - 5),
	// a to -1 + (4 - 5), x to 0 + (3 - 5); d stays 0.
	want := []float64{-7, -2, -2, 0}
	for v, w := range want {
		if got := solver.node[v].pot; !stats.ApproxInDelta(got, w, 1e-12) {
			t.Fatalf("pot[%d] = %v, want %v (all: %v)", v, got, w, want)
		}
	}
}

// TestRoutePreservesReducedCosts: with no negative cost, every open
// residual arc — whatever mix of settled, unsettled and never-reached
// nodes it joins — has reduced cost >= 0 under the kernel's potentials
// after every Route of a session, which is the invariant the next
// phase's scan enforces.
func TestRoutePreservesReducedCosts(t *testing.T) {
	r := rng.New(0x9c0)
	for trial := 0; trial < 200; trial++ {
		n := 4 + r.Intn(8)
		g := New()
		g.AddNodes(n)
		for e, m := 0, n+r.Intn(4*n); e < m; e++ {
			u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
			if u == v {
				continue
			}
			g.AddEdge(Edge{From: u, To: v, Capacity: float64(r.Intn(6)), Cost: float64(r.Intn(8))})
		}
		solver := NewMCFSolver(g)
		if err := solver.Load(nil); err != nil {
			t.Fatal(err)
		}
		total := make([]float64, g.NumEdges())
		for k := 0; k < 6; k++ {
			src, dst := NodeID(r.Intn(n)), NodeID(r.Intn(n))
			if _, err := solver.Route(src, dst, r.Uniform(0.5, 8)); err != nil {
				t.Fatalf("trial %d route %d: %v", trial, k, err)
			}
			for a, c := range solver.rcap {
				if c <= Eps {
					continue
				}
				u, v := solver.head[a^1], solver.head[a]
				if rc := solver.cost[a] + solver.node[u].pot - solver.node[v].pot; rc < -1e-9 {
					t.Fatalf("trial %d route %d: open arc %d (%d->%d) has reduced cost %v", trial, k, a, u, v, rc)
				}
			}
			solver.Commit(total)
		}
	}
}

// TestMinCostFlowUnreachableNodeMultiPhase runs the full solver on a
// graph whose node x stays Dijkstra-unreachable across several phases
// (zero-capacity in-arc) while the rest of the network goes through
// the multi-phase augmentation that advances all other potentials.
// The solve must finish without the spurious invariant error and with
// the hand-computed optimum.
func TestMinCostFlowUnreachableNodeMultiPhase(t *testing.T) {
	g := New()
	s := g.AddNode("s")
	a := g.AddNode("a")
	b := g.AddNode("b")
	x := g.AddNode("x")
	d := g.AddNode("d")
	g.AddEdge(Edge{From: s, To: a, Capacity: 1, Cost: 1})
	g.AddEdge(Edge{From: a, To: d, Capacity: 1, Cost: 1})
	g.AddEdge(Edge{From: s, To: b, Capacity: 1, Cost: 2})
	g.AddEdge(Edge{From: b, To: d, Capacity: 1, Cost: 2})
	// x hangs off a zero-capacity arc: unreachable in every phase, but
	// its potential is still folded into the update each round.
	g.AddEdge(Edge{From: s, To: x, Capacity: 0, Cost: -3})
	g.AddEdge(Edge{From: x, To: d, Capacity: 5, Cost: 0})

	res, err := g.MinCostMaxFlow(s, d)
	if err != nil {
		t.Fatalf("MinCostMaxFlow: %v", err)
	}
	if !stats.ApproxInDelta(res.Value, 2, 1e-9) || !stats.ApproxInDelta(res.Cost, 6, 1e-9) {
		t.Fatalf("value %v cost %v, want 2 and 6", res.Value, res.Cost)
	}
	if res.Stats.Phases < 2 {
		t.Fatalf("expected a multi-phase solve, got %d phases", res.Stats.Phases)
	}
}

// referenceMinCostMaxFlow is an independent successive-shortest-path
// oracle that runs Bellman-Ford on the residual graph each phase
// instead of Dijkstra-with-potentials. Slow but potential-free, so it
// cannot suffer the stale-potential failure by construction.
func referenceMinCostMaxFlow(g *Graph, src, dst NodeID) (value, cost float64) {
	r := newResidual(g)
	n := r.n
	for {
		dist := make([]float64, n)
		prevArc := make([]int, n)
		for i := range dist {
			dist[i] = math.Inf(1)
			prevArc[i] = -1
		}
		dist[src] = 0
		for iter := 0; iter < n; iter++ {
			improved := false
			for u := 0; u < n; u++ {
				if math.IsInf(dist[u], 1) {
					continue
				}
				for _, a := range r.adj[u] {
					if r.cap[a] <= Eps {
						continue
					}
					v := r.head[a]
					if nd := dist[u] + r.cost[a]; nd+Eps < dist[v] {
						dist[v] = nd
						prevArc[v] = a
						improved = true
					}
				}
			}
			if !improved {
				break
			}
		}
		if math.IsInf(dist[dst], 1) {
			return value, cost
		}
		push := math.Inf(1)
		for v := dst; v != src; {
			a := prevArc[v]
			if r.cap[a] < push {
				push = r.cap[a]
			}
			v = r.head[a^1]
		}
		if push <= Eps {
			return value, cost
		}
		for v := dst; v != src; {
			a := prevArc[v]
			r.cap[a] -= push
			r.cap[a^1] += push
			cost += push * r.cost[a]
			v = r.head[a^1]
		}
		value += push
	}
}

// TestMinCostFlowMatchesBellmanFordReference sweeps random graphs —
// zero-capacity arcs and negative costs included, the exact regime the
// stale-potential sequence needs — and checks MinCostMaxFlow against
// the potential-free oracle on every solvable instance.
func TestMinCostFlowMatchesBellmanFordReference(t *testing.T) {
	trials := 4000
	if testing.Short() {
		trials = 400
	}
	r := rng.New(0xf10f)
	checked := 0
	for trial := 0; trial < trials; trial++ {
		n := 4 + r.Intn(5)
		g := New()
		g.AddNodes(n)
		m := n + r.Intn(2*n)
		for e := 0; e < m; e++ {
			u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
			if u == v {
				continue
			}
			g.AddEdge(Edge{From: u, To: v,
				Capacity: float64(r.Intn(4)),
				Cost:     float64(r.Intn(11) - 4)})
		}
		src, dst := NodeID(0), NodeID(n-1)
		if _, neg := g.BellmanFord(src); neg {
			continue // legitimately rejected: negative cycle
		}
		res, err := g.MinCostMaxFlow(src, dst)
		if err != nil {
			t.Fatalf("trial %d: MinCostMaxFlow: %v", trial, err)
		}
		wantV, wantC := referenceMinCostMaxFlow(g, src, dst)
		if !stats.ApproxInDelta(res.Value, wantV, 1e-6) || !stats.ApproxInDelta(res.Cost, wantC, 1e-6) {
			t.Fatalf("trial %d: got value %v cost %v, reference value %v cost %v",
				trial, res.Value, res.Cost, wantV, wantC)
		}
		checked++
	}
	if checked < trials/2 {
		t.Fatalf("only %d/%d instances checked", checked, trials)
	}
}
