package graph

import (
	"fmt"
	"math"
)

// MCFSolver is a reusable successive-shortest-paths min-cost flow
// solver bound to one graph's structure. It holds the residual network
// in CSR (flat-slice) form plus every scratch buffer a solve needs, so
// repeated solves over the same graph — the TE round hot path — do not
// allocate. Graph.MinCostFlow is a thin wrapper that builds a fresh
// solver per call, so the warm and cold paths share one implementation
// and produce bit-identical results.
//
// The solver re-reads edge capacities and costs from the graph (or the
// fwdCap override) at the start of every Solve, so callers may mutate
// them between solves. Structure (node/edge count) is re-checked each
// Solve and the CSR layout rebuilt if it changed; rebuilding allocates,
// steady-state solves do not.
//
// A solver is not safe for concurrent use.
type MCFSolver struct {
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

// potBound is the sanity ceiling on Johnson potentials. Potentials grow
// by at most one sink distance per phase; a magnitude beyond this bound
// (or a NaN) means the invariant is broken — costs far outside the
// problem's scale or unbounded growth — and further clamping would
// silently return wrong flows.
const potBound = 1e30

// NewMCFSolver builds a solver bound to g's current structure.
func NewMCFSolver(g *Graph) *MCFSolver {
	s := &MCFSolver{g: g}
	s.build()
	return s
}

// build (re)derives the CSR residual layout from the bound graph.
func (s *MCFSolver) build() {
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
	s.arcs = growInt32(s.arcs, nArcs)
	s.arcStart = growInt32(s.arcStart, s.nNodes+1)
	s.pot = grow(s.pot, s.nNodes)
	s.dist = grow(s.dist, s.nNodes)
	s.prevArc = growInt32(s.prevArc, s.nNodes)
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

// grow returns buf resized to n, reallocating only when capacity is
// insufficient.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// negRCTol is the slack below zero tolerated for a reduced cost before
// the potential invariant is declared broken. The old fixed -1e-6
// threshold misfires on large graphs with high-cost (fake) edges:
// potentials legitimately accumulate to ~1e9 and beyond over many
// phases, and the float64 rounding of cost + pot[u] - pot[v] is
// proportional to those magnitudes, not absolute. The tolerance
// therefore scales with the operands (1e-12 relative — still ~1000×
// the accumulated rounding error, and far below any real cost) on top
// of the old absolute floor.
func negRCTol(cost, potU, potV float64) float64 {
	s := cost
	if s < 0 {
		s = -s
	}
	if potU < 0 {
		s -= potU
	} else {
		s += potU
	}
	if potV < 0 {
		s -= potV
	} else {
		s += potV
	}
	return 1e-6 + 1e-12*s
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
func (s *MCFSolver) Solve(src, dst NodeID, limit float64, fwdCap, flowOut []float64) (FlowResult, error) {
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
		updatePotentials(s.pot, s.dist, s.dist[dst])
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
func (s *MCFSolver) bellmanFord(src NodeID) (negCycle bool) {
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
