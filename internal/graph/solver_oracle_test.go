package graph

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

// refMCFSolver is MCFSolver as it stood before it became a session
// kernel, kept verbatim as the per-solve reference: every Solve reloads
// all residual arcs, runs Bellman–Ford whatever the costs, runs each
// Dijkstra phase to exhaustion over freshly cleared O(V) arrays and
// folds the distances into every node's potential with the capped rule.
type refMCFSolver struct {
	g      *Graph
	nNodes int
	nEdges int

	// Residual arcs: arc 2i is the forward copy of edge i, arc 2i+1
	// the backward copy (same layout as the Dinic residual).
	head []NodeID  // arc -> target node
	rcap []float64 // arc -> remaining capacity
	cost []float64 // arc -> cost per unit

	// CSR adjacency: the arcs leaving node u are
	// arcs[arcStart[u]:arcStart[u+1]], in edge-ID order — the exact
	// per-node order the append-built residual used, so Dijkstra
	// tie-breaking (and therefore every result bit) is unchanged.
	arcStart []int32
	arcs     []int32

	// Scratch reused across solves and phases.
	pot     []float64
	dist    []float64
	prevArc []int32
	done    []bool
	pq      distHeap
}

func newRefMCFSolver(g *Graph) *refMCFSolver {
	s := &refMCFSolver{g: g}
	s.build()
	return s
}

// build (re)derives the CSR residual layout from the bound graph.
func (s *refMCFSolver) build() {
	g := s.g
	s.nNodes = g.NumNodes()
	s.nEdges = g.NumEdges()
	nArcs := 2 * s.nEdges

	if cap(s.head) < nArcs {
		s.head = make([]NodeID, nArcs)
	}
	s.head = s.head[:nArcs]
	s.rcap = grow(s.rcap, nArcs)
	s.cost = grow(s.cost, nArcs)
	s.arcs = grow(s.arcs, nArcs)
	s.arcStart = grow(s.arcStart, s.nNodes+1)
	s.pot = grow(s.pot, s.nNodes)
	s.dist = grow(s.dist, s.nNodes)
	s.prevArc = grow(s.prevArc, s.nNodes)
	if cap(s.done) < s.nNodes {
		s.done = make([]bool, s.nNodes)
	}
	s.done = s.done[:s.nNodes]

	// Count arcs per node, prefix-sum, then fill in edge order so each
	// node's arc list matches the append-built residual exactly.
	for i := range s.arcStart {
		s.arcStart[i] = 0
	}
	for i := 0; i < s.nEdges; i++ {
		e := &g.edges[i]
		s.arcStart[e.From+1]++
		s.arcStart[e.To+1]++
		s.head[2*i] = e.To
		s.head[2*i+1] = e.From
	}
	for u := 0; u < s.nNodes; u++ {
		s.arcStart[u+1] += s.arcStart[u]
	}
	// next[u] tracks the fill cursor; reuse prevArc's backing? No —
	// prevArc is per-node too but int32, reuse would alias arcStart
	// semantics. A small local slice is fine: build runs once per
	// structure change, not per solve.
	next := make([]int32, s.nNodes)
	copy(next, s.arcStart[:s.nNodes])
	for i := 0; i < s.nEdges; i++ {
		e := &g.edges[i]
		s.arcs[next[e.From]] = int32(2 * i)
		next[e.From]++
		s.arcs[next[e.To]] = int32(2*i + 1)
		next[e.To]++
	}
}

// Solve computes a minimum-cost flow of up to limit units from src to
// dst, exactly as Graph.MinCostFlow does (same algorithm, same
// tie-breaking, bit-identical results).
//
// fwdCap, when non-nil, overrides the forward capacity of every edge
// (indexed by EdgeID) — this is how the warm TE allocator tracks
// residual capacity across demands without cloning the graph. Nil means
// the graph's own capacities. Costs always come from the graph.
//
// flowOut, when non-nil, receives the per-edge net flow (it must have
// length NumEdges) and is aliased as the result's EdgeFlow, so the
// steady-state solve allocates nothing. Nil allocates a fresh slice.
func (s *refMCFSolver) Solve(src, dst NodeID, limit float64, fwdCap, flowOut []float64) (FlowResult, error) {
	g := s.g
	if s.nNodes != g.NumNodes() || s.nEdges != g.NumEdges() {
		s.build()
	}
	if !g.HasNode(src) || !g.HasNode(dst) {
		return FlowResult{}, fmt.Errorf("graph: MinCostFlow endpoints invalid: %d -> %d", int(src), int(dst))
	}
	if flowOut == nil {
		flowOut = make([]float64, s.nEdges)
	} else if len(flowOut) != s.nEdges {
		return FlowResult{}, fmt.Errorf("graph: flowOut has %d entries for %d edges", len(flowOut), s.nEdges)
	}
	if src == dst {
		for i := range flowOut {
			flowOut[i] = 0
		}
		return FlowResult{EdgeFlow: flowOut}, nil
	}
	if limit < 0 || math.IsNaN(limit) {
		return FlowResult{}, fmt.Errorf("graph: MinCostFlow limit %v invalid", limit)
	}
	if fwdCap != nil && len(fwdCap) != s.nEdges {
		return FlowResult{}, fmt.Errorf("graph: fwdCap has %d entries for %d edges", len(fwdCap), s.nEdges)
	}

	// Load this solve's capacities and costs into the residual arcs.
	for i := 0; i < s.nEdges; i++ {
		c := g.edges[i].Capacity
		if fwdCap != nil {
			c = fwdCap[i]
		}
		s.rcap[2*i] = c
		s.rcap[2*i+1] = 0
		s.cost[2*i] = g.edges[i].Cost
		s.cost[2*i+1] = -g.edges[i].Cost
	}

	// Initial potentials via Bellman-Ford to accommodate negative
	// costs — same relaxation order and tolerance as Graph.BellmanFord,
	// reading the loaded forward capacities.
	if neg := s.bellmanFord(src); neg {
		return FlowResult{}, fmt.Errorf("graph: negative-cost cycle reachable from source")
	}
	for i := range s.pot {
		if math.IsInf(s.pot[i], 1) {
			s.pot[i] = 0 // unreachable; potential unused
		}
	}

	var total, totalCost float64
	var stats SolveStats

	for total+Eps < limit {
		// Dijkstra on reduced costs.
		stats.Phases++
		for i := range s.dist {
			s.dist[i] = math.Inf(1)
			s.prevArc[i] = -1
			s.done[i] = false
		}
		s.dist[src] = 0
		s.pq = s.pq[:0]
		s.pq.push(int32(src), 0)
		for len(s.pq) > 0 {
			u := NodeID(s.pq.pop().node)
			stats.Pops++
			if s.done[u] {
				continue
			}
			s.done[u] = true
			for k := s.arcStart[u]; k < s.arcStart[u+1]; k++ {
				a := s.arcs[k]
				if s.rcap[a] <= Eps {
					continue
				}
				stats.Relaxations++
				v := s.head[a]
				rc := s.cost[a] + s.pot[u] - s.pot[v]
				if rc < 0 {
					// Numerical slack: clamp tiny negatives, at a
					// tolerance scaled to the operand magnitudes.
					if rc < -negRCTol(s.cost[a], s.pot[u], s.pot[v]) {
						return FlowResult{}, fmt.Errorf("graph: negative reduced cost %v (potential invariant broken)", rc)
					}
					rc = 0
				}
				if nd := s.dist[u] + rc; nd+Eps < s.dist[v] {
					s.dist[v] = nd
					s.prevArc[v] = a
					s.pq.push(int32(v), nd)
				}
			}
		}
		if math.IsInf(s.dist[dst], 1) {
			break // no augmenting path left
		}
		refUpdatePotentials(s.pot, s.dist, s.dist[dst])
		// Invariant: potentials advance by at most dist[dst] per phase
		// and must stay finite and within the problem's scale. Catch
		// unbounded growth loudly instead of corrupting reduced costs.
		for i, p := range s.pot {
			if !(p >= -potBound && p <= potBound) { // also catches NaN
				return FlowResult{}, fmt.Errorf("graph: potential %v at node %d out of bounds (unbounded growth)", p, i)
			}
		}
		// Find bottleneck along the path.
		push := limit - total
		for v := dst; v != src; {
			a := s.prevArc[v]
			if s.rcap[a] < push {
				push = s.rcap[a]
			}
			v = s.head[a^1]
		}
		if push <= Eps {
			break
		}
		// Apply.
		for v := dst; v != src; {
			a := s.prevArc[v]
			s.rcap[a] -= push
			s.rcap[a^1] += push
			totalCost += push * s.cost[a]
			v = s.head[a^1]
		}
		total += push
		stats.Augmentations++
	}

	for i := 0; i < s.nEdges; i++ {
		// Flow on edge i equals the capacity accumulated on its
		// backward arc.
		flowOut[i] = s.rcap[2*i+1]
	}
	return FlowResult{Value: total, EdgeFlow: flowOut, Cost: totalCost, Stats: stats}, nil
}

// bellmanFord computes shortest distances by cost from src into s.pot
// over arcs with positive loaded forward capacity, reporting whether a
// negative cycle reachable from src exists. It mirrors Graph.BellmanFord
// (same iteration order, same Eps tolerances) but reads the loaded
// residual capacities so fwdCap overrides apply.
func (s *refMCFSolver) bellmanFord(src NodeID) (negCycle bool) {
	dist := s.pot
	n := s.nNodes
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for i := 0; i < s.nEdges; i++ {
			if s.rcap[2*i] <= Eps {
				continue
			}
			e := &s.g.edges[i]
			if math.IsInf(dist[e.From], 1) {
				continue
			}
			if nd := dist[e.From] + e.Cost; nd+Eps < dist[e.To] {
				dist[e.To] = nd
				changed = true
				if iter == n-1 {
					return true
				}
			}
		}
		if !changed {
			break
		}
	}
	return false
}

// refUpdatePotentials folds one Dijkstra phase's distances into the
// Johnson potentials: pot[i] += min(dist[i], dstDist).
//
// The cap at dstDist (the phase's distance to the sink) is the
// standard successive-shortest-path rule. Leaving a phase-unreachable
// node's potential untouched while its neighbours advance breaks the
// reduced-cost invariant the Dijkstra scan checks: if a later residual
// arc makes the node reachable again, the first arc scanned out of it
// sees rc = cost + pot[stale] - pot[advanced] < 0 and MinCostFlow
// reports a spurious "negative reduced cost" error. Capping at dstDist
// keeps every arc between ever-reachable nodes at rc >= 0 regardless
// of which nodes a given phase visits (arcs whose reduced cost the
// next phase consults all lie at distance <= dstDist, so the cap never
// under-advances a node that matters).
func refUpdatePotentials(pot, dist []float64, dstDist float64) {
	for i := range pot {
		if d := dist[i]; d < dstDist { // Inf compares false
			pot[i] += d
		} else {
			pot[i] += dstDist
		}
	}
}

// cycleCancelMinCostFlow is a reference that shares nothing with the
// kernel's method: ship min(limit, max flow) with Dinic, then cancel
// negative-cost cycles of the residual (found by Bellman–Ford from a
// virtual root) until none is left, which is optimal for that value by
// the negative-cycle criterion. For graphs with integer capacities,
// costs and limit only: every cancel then lowers the cost by >= 1.
func cycleCancelMinCostFlow(t *testing.T, g *Graph, src, dst NodeID, limit float64) (value, cost float64) {
	t.Helper()
	res, err := g.MaxFlow(src, dst, limit)
	if err != nil {
		t.Fatalf("reference max flow: %v", err)
	}
	f := append([]float64(nil), res.EdgeFlow...)
	n := g.NumNodes()
	// Residual arc 2i is edge i forward (room Capacity-f), 2i+1 backward
	// (room f, cost negated).
	tail := func(a int) NodeID {
		if a&1 == 0 {
			return g.edges[a/2].From
		}
		return g.edges[a/2].To
	}
	room := func(a int) float64 {
		if a&1 == 0 {
			return g.edges[a/2].Capacity - f[a/2]
		}
		return f[a/2]
	}
	dist, prev := make([]float64, n), make([]int, n)
	for {
		for i := range dist {
			dist[i], prev[i] = 0, -1
		}
		relaxed := NoNode
		for pass := 0; pass < n; pass++ {
			relaxed = NoNode
			for a := 0; a < 2*len(g.edges); a++ {
				if room(a) < 0.5 {
					continue
				}
				e := &g.edges[a/2]
				u, v, c := e.From, e.To, e.Cost
				if a&1 == 1 {
					u, v, c = v, u, -c
				}
				if dist[u]+c < dist[v]-1e-9 {
					dist[v], prev[v], relaxed = dist[u]+c, a, v
				}
			}
			if relaxed == NoNode {
				break
			}
		}
		if relaxed == NoNode {
			break // n-th pass relaxed nothing: no negative cycle
		}
		on := relaxed
		for k := 0; k < n; k++ {
			on = tail(prev[on]) // n steps back is on the cycle
		}
		amount := math.Inf(1)
		for v := on; ; {
			a := prev[v]
			amount = math.Min(amount, room(a))
			if v = tail(a); v == on {
				break
			}
		}
		for v := on; ; {
			a := prev[v]
			if a&1 == 0 {
				f[a/2] += amount
			} else {
				f[a/2] -= amount
			}
			if v = tail(a); v == on {
				break
			}
		}
	}
	for i, e := range g.edges {
		cost += f[i] * e.Cost
		if e.From == src {
			value += f[i]
		}
		if e.To == src {
			value -= f[i]
		}
	}
	return value, cost
}

// oracleGraph draws a multigraph on n nodes plus an island (node n) that
// nothing reaches: parallel edges, dead (zero-capacity) edges, integer
// costs, and capacities that are small integers when integer is set (the
// cycle-cancelling reference needs them) and real-valued otherwise. With
// negative set, costs are w + pi(u) - pi(v) for random node potentials
// pi and w >= 0 — negative on many edges, yet on no cycle anywhere.
func oracleGraph(r *rng.Source, n int, integer, negative bool) *Graph {
	g := New()
	g.AddNodes(n + 1)
	pi := make([]int, n)
	if negative {
		for i := range pi {
			pi[i] = r.Intn(9)
		}
	}
	for e, m := 0, n+r.Intn(4*n); e < m; e++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		capacity := r.Uniform(1, 40)
		if integer {
			capacity = float64(1 + r.Intn(7))
		}
		if r.Bernoulli(0.1) {
			capacity = 0
		}
		g.AddEdge(Edge{From: NodeID(u), To: NodeID(v), Capacity: capacity, Cost: float64(r.Intn(6) + pi[u] - pi[v])})
	}
	return g
}

// checkFlow asserts f is a feasible src->dst flow of the given value
// under capacities capOf: within bounds on every edge, conserved at
// every other node.
func checkFlow(t *testing.T, g *Graph, capOf func(EdgeID) float64, src, dst NodeID, f []float64, value float64) {
	t.Helper()
	net := make([]float64, g.NumNodes())
	for i, x := range f {
		e := &g.edges[i]
		if x < -1e-9 || x > capOf(EdgeID(i))+1e-9 {
			t.Fatalf("edge %d flow %v outside [0, %v]", i, x, capOf(EdgeID(i)))
		}
		net[e.From] += x
		net[e.To] -= x
	}
	for v, x := range net {
		want := 0.0
		switch {
		case src == dst:
		case NodeID(v) == src:
			want = value
		case NodeID(v) == dst:
			want = -value
		}
		if math.Abs(x-want) > 1e-6 {
			t.Fatalf("node %d: net outflow %v, want %v", v, x, want)
		}
	}
}

// TestSolveMatchesReferences: on 600 small integer instances — half with
// negative costs, so half through each way of starting the potentials —
// Solve ships the Value and Cost of both the old loop and the
// cycle-cancelling reference, as a feasible conserving flow. The flows
// themselves may differ where paths tie.
func TestSolveMatchesReferences(t *testing.T) {
	r := rng.New(0x0c7e)
	negative := 0
	for trial := 0; trial < 600; trial++ {
		g := oracleGraph(r, 3+r.Intn(6), true, trial%2 == 1)
		src, dst := NodeID(0), NodeID(g.NumNodes()-2)
		limit := math.Inf(1)
		if r.Bernoulli(0.5) {
			limit = float64(1 + r.Intn(12))
		}
		solver := NewMCFSolver(g)
		got, err := solver.Solve(src, dst, limit, nil, nil)
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		if solver.negCost {
			negative++
		}
		ref, err := newRefMCFSolver(g).Solve(src, dst, limit, nil, nil)
		if err != nil {
			t.Fatalf("trial %d: old loop: %v", trial, err)
		}
		if !stats.ApproxEqual(got.Value, ref.Value, 1e-9) || !stats.ApproxEqual(got.Cost, ref.Cost, 1e-9) {
			t.Fatalf("trial %d: value/cost %v/%v, old loop %v/%v", trial, got.Value, got.Cost, ref.Value, ref.Cost)
		}
		v, c := cycleCancelMinCostFlow(t, g, src, dst, limit)
		if !stats.ApproxEqual(got.Value, v, 1e-9) || !stats.ApproxEqual(got.Cost, c, 1e-9) {
			t.Fatalf("trial %d: value/cost %v/%v, cycle-cancelling %v/%v", trial, got.Value, got.Cost, v, c)
		}
		checkFlow(t, g, func(id EdgeID) float64 { return g.edges[id].Capacity }, src, dst, got.EdgeFlow, got.Value)
		if !stats.ApproxEqual(got.costOn(g), got.Cost, 1e-9) {
			t.Fatalf("trial %d: Cost %v but flows cost %v", trial, got.Cost, got.costOn(g))
		}
	}
	if negative < 200 {
		t.Fatalf("only %d instances took the Bellman–Ford start", negative)
	}
}

// routeSession drives one session of solver over g — Load, then demands
// drawn from r — and holds every Route to the per-solve contract: on the
// residual the session has reached (read from the kernel's own forward
// arcs), the old loop ships the same Value at the same Cost, and the
// routed flow is feasible and conserving on that residual. After an
// exhausted search, the reported reach set is exactly what a BFS over
// the open arcs reaches.
func routeSession(t *testing.T, r *rng.Source, g *Graph, solver *MCFSolver, label string) {
	t.Helper()
	if err := solver.Load(nil); err != nil {
		t.Fatalf("%s: Load: %v", label, err)
	}
	nE, n := g.NumEdges(), g.NumNodes()
	ref := newRefMCFSolver(g)
	capLeft, flow, total := make([]float64, nE), make([]float64, nE), make([]float64, nE)
	for k := 0; k < 10; k++ {
		src, dst := NodeID(r.Intn(n)), NodeID(r.Intn(n))
		limit := r.Uniform(1, 60)
		if r.Bernoulli(0.15) {
			limit = math.Inf(1)
		}
		for i := range capLeft {
			capLeft[i] = solver.rcap[2*i]
			if capLeft[i] < 0 {
				t.Fatalf("%s route %d: edge %d has %v left", label, k, i, capLeft[i])
			}
			if solver.rcap[2*i+1] != 0 {
				t.Fatalf("%s route %d: backward arc of edge %d holds %v between routes", label, k, i, solver.rcap[2*i+1])
			}
		}
		got, err := solver.Route(src, dst, limit)
		if err != nil {
			t.Fatalf("%s route %d: %v", label, k, err)
		}
		want, err := ref.Solve(src, dst, limit, capLeft, nil)
		if err != nil {
			t.Fatalf("%s route %d: old loop: %v", label, k, err)
		}
		if !stats.ApproxEqual(got.Value, want.Value, 1e-9) || !stats.ApproxEqual(got.Cost, want.Cost, 1e-9) {
			t.Fatalf("%s route %d (%d->%d limit %v): value/cost %v/%v, old loop %v/%v",
				label, k, src, dst, limit, got.Value, got.Cost, want.Value, want.Cost)
		}
		for i := range flow {
			flow[i] = 0
		}
		solver.Flow(flow)
		checkFlow(t, g, func(id EdgeID) float64 { return capLeft[id] }, src, dst, flow, got.Value)

		if reached := solver.Exhausted(); reached != nil {
			if src != dst && !(got.Value+Eps < limit) {
				t.Fatalf("%s route %d: exhausted although the limit was met", label, k)
			}
			open := map[NodeID]bool{src: true}
			for queue := []NodeID{src}; len(queue) > 0; queue = queue[1:] {
				u := queue[0]
				for _, a := range solver.arcs[solver.arcStart[u]:solver.arcStart[u+1]] {
					if v := solver.head[a]; solver.rcap[a] > Eps && !open[v] {
						open[v] = true
						queue = append(queue, v)
					}
				}
			}
			if len(reached) != len(open) || open[dst] {
				t.Fatalf("%s route %d: reach set %v, BFS over open arcs %v (dst %d)", label, k, reached, open, dst)
			}
			for _, v := range reached {
				if !open[v] {
					t.Fatalf("%s route %d: node %d reported reached, BFS disagrees", label, k, v)
				}
			}
		}
		solver.Commit(total)
	}
	checkCapacity := func(id EdgeID) float64 { return g.edges[id].Capacity }
	for i, x := range total {
		if x < 0 || x > checkCapacity(EdgeID(i))+1e-6 {
			t.Fatalf("%s: committed flow %v on edge %d of capacity %v", label, x, i, checkCapacity(EdgeID(i)))
		}
	}
}

// TestSessionMatchesOldLoopPerRoute runs routeSession over random
// graphs, every third one with negative costs (the Bellman–Ford start
// through the same session API), on a fresh solver each.
func TestSessionMatchesOldLoopPerRoute(t *testing.T) {
	r := rng.New(0x5e55)
	for trial := 0; trial < 150; trial++ {
		g := oracleGraph(r, 4+r.Intn(8), false, trial%3 == 2)
		routeSession(t, r, g, NewMCFSolver(g), fmt.Sprintf("trial %d", trial))
	}
}

// TestSessionSurvivesReuse keeps ONE solver through everything that
// must not leak from one session into the next: the graph growing under
// it (nodes and edges, so Load rebuilds), costs turning negative and
// back (Bellman–Ford potentials must not survive into a zero start), the
// phase epoch wrapping its uint32, a Load refused for a bad override, a
// Route refused mid-session, and a session abandoned with flow still
// uncommitted.
func TestSessionSurvivesReuse(t *testing.T) {
	r := rng.New(0x2e05e)
	g := oracleGraph(r, 4+r.Intn(8), false, false)
	solver := NewMCFSolver(g)
	for step := 0; step < 60; step++ {
		label := fmt.Sprintf("step %d", step)
		switch step % 6 {
		case 1: // grow
			v := g.AddNode("")
			u := NodeID(r.Intn(int(v)))
			g.AddEdge(Edge{From: u, To: v, Capacity: r.Uniform(1, 40), Cost: 1})
			g.AddEdge(Edge{From: v, To: NodeID(r.Intn(int(v))), Capacity: r.Uniform(1, 40), Cost: 2})
		case 2: // a negative cost on an edge into a fresh sink-only node: no cycle
			v := g.AddNode("")
			g.AddEdge(Edge{From: NodeID(r.Intn(int(v))), To: v, Capacity: 5, Cost: -3})
		case 3: // back to non-negative costs
			for i := range g.edges {
				if g.edges[i].Cost < 0 {
					g.SetCost(EdgeID(i), 0)
				}
			}
		case 4:
			solver.epoch = math.MaxUint32 - 2
		case 5:
			bad := make([]float64, g.NumEdges())
			bad[len(bad)/2] = math.NaN()
			if err := solver.Load(bad); err == nil {
				t.Fatalf("%s: Load accepted a NaN capacity", label)
			}
			if err := solver.Load(nil); err != nil {
				t.Fatal(err)
			}
			if _, err := solver.Route(0, 1, -1); err == nil {
				t.Fatalf("%s: Route accepted a negative limit", label)
			}
			if _, err := solver.Route(0, NodeID(g.NumNodes()-1), math.Inf(1)); err != nil {
				t.Fatal(err)
			} // left uncommitted
		}
		routeSession(t, r, g, solver, label)
		if step%6 == 4 && solver.epoch > 1<<20 {
			t.Fatalf("%s: epoch = %d, want a small post-wrap value", label, solver.epoch)
		}
	}
}

// TestRouteRefusesUncommittedFlow: a second Route on a residual that
// still carries the first one's backward arcs would start from
// potentials that are not valid for them.
func TestRouteRefusesUncommittedFlow(t *testing.T) {
	g, s, d := statsDiamond(t)
	solver := NewMCFSolver(g)
	if err := solver.Load(nil); err != nil {
		t.Fatal(err)
	}
	if res, err := solver.Route(s, d, 5); err != nil || res.Value != 5 {
		t.Fatalf("first route: %+v, %v", res, err)
	}
	if _, err := solver.Route(s, d, 5); err == nil {
		t.Fatal("second Route without Commit succeeded")
	}
	total := make([]float64, g.NumEdges())
	solver.Commit(total)
	if res, err := solver.Route(s, d, 50); err != nil || res.Value != 15 {
		t.Fatalf("route after commit: %+v, %v (want the 15 units left)", res, err)
	}
}

// TestLoadValidatesCapacityOverride: the fwdCap override is checked like
// every other capacity input. On a->b->c with capacities 10/10, a NaN
// override used to read as an open arc that never bottlenecks — an
// unbounded link (Value 10, no error). +Inf stays legal.
func TestLoadValidatesCapacityOverride(t *testing.T) {
	g := New()
	a := g.AddNodes(3)
	g.AddEdge(Edge{From: a, To: a + 1, Capacity: 10})
	g.AddEdge(Edge{From: a + 1, To: a + 2, Capacity: 10})
	solver := NewMCFSolver(g)
	for _, bad := range []float64{math.NaN(), -1, math.Inf(-1)} {
		res, err := solver.Solve(a, a+2, 100, []float64{bad, 10}, nil)
		if err == nil {
			t.Fatalf("override %v accepted: value %v flows %v", bad, res.Value, res.EdgeFlow)
		}
		if want := "edge 0"; !strings.Contains(err.Error(), want) {
			t.Fatalf("override %v: error %q does not name %s", bad, err, want)
		}
	}
	res, err := solver.Solve(a, a+2, 100, []float64{math.Inf(1), 10}, nil)
	if err != nil || res.Value != 10 {
		t.Fatalf("+Inf override: value %v, err %v; want 10", res.Value, err)
	}
}
