package graph

import (
	"fmt"
	"math"
)

// MCFSolver is the successive-shortest-paths min-cost flow kernel bound
// to one graph's structure: the residual network in CSR (flat-slice)
// form plus every scratch buffer a solve needs. It is a session. Load
// reads the graph's capacities and costs once; Route ships one demand on
// the residual its predecessors left and Commit makes that flow
// permanent, both at a cost proportional to what the demand reaches —
// arcs scanned, nodes settled, edges pushed over — never O(V) or O(E).
// The residual is the kernel's: between Routes every backward arc is
// zero and edge i's forward arc holds the capacity left, so a greedy
// allocator keeps no capacity vector of its own. Solve is the one-shot
// delegate (Load, Route, export the flows) behind Graph.MinCostFlow, so
// every min-cost flow in the module runs the same loop. DESIGN.md,
// "Warm-start hot path", has the arguments.
//
// Rebuilding the layout (Load, when the node or edge count changed)
// allocates; steady-state sessions do not. Not safe for concurrent use.
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
	// arcs[arcStart[u]:arcStart[u+1]], in edge-ID order, which with the
	// heap layout decides Dijkstra's tie-breaks.
	arcStart []int32
	arcs     []int32

	// negCost: Load saw a negative edge cost, so every Route starts from
	// Bellman–Ford potentials instead of zeros.
	negCost bool

	// Search state, stamped with the phase's epoch so starting a phase is
	// one increment. settled: the nodes the current phase settled; moved:
	// those whose potential has left zero since the last Route began.
	node    []mcfNode
	epoch   uint32
	pq      distHeap
	settled []NodeID
	moved   []NodeID

	// touched: the edges the uncommitted Route pushed flow over (one whose
	// flow cancelled back to exactly zero may repeat; every reader is
	// idempotent per edge). exhausted: that Route's last search could not
	// reach the sink, and settled is what it did reach.
	touched   []EdgeID
	exhausted bool
}

// mcfNode is the per-node state, packed so a relaxation touches one
// cache line per endpoint.
type mcfNode struct {
	pot  float64 // Johnson potential, kept across the phases of a Route
	dist float64
	prev int32  // arc that last improved dist
	seen uint32 // epoch at which dist/prev were written
	done uint32 // epoch at which the node was settled
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

	s.head = grow(s.head, nArcs)
	s.rcap = grow(s.rcap, nArcs)
	s.cost = grow(s.cost, nArcs)
	s.arcs = grow(s.arcs, nArcs)
	s.arcStart = grow(s.arcStart, s.nNodes+1)
	// Fresh stamps and zero potentials; the node lists at their bound.
	s.node, s.epoch = make([]mcfNode, s.nNodes), 0
	s.settled, s.moved = make([]NodeID, 0, s.nNodes), make([]NodeID, 0, s.nNodes)

	// Count arcs per node, prefix-sum, then fill in edge order so each
	// node's arc list matches the append-built residual exactly.
	clear(s.arcStart)
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
	// next[u] is the fill cursor; build runs once per structure change.
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
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
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

// Load starts a session: it reads every edge's capacity — fwdCap[i] when
// fwdCap is non-nil, the graph's own otherwise — and cost into the
// residual, dropping whatever an earlier session left, so callers may
// mutate the graph between sessions. A capacity that is negative or NaN
// is an error (+Inf is legal): a NaN would read as an open arc that
// never bottlenecks.
func (s *MCFSolver) Load(fwdCap []float64) error {
	g := s.g
	if s.nNodes != g.NumNodes() || s.nEdges != g.NumEdges() {
		s.build()
	}
	if fwdCap != nil && len(fwdCap) != s.nEdges {
		return fmt.Errorf("graph: fwdCap has %d entries for %d edges", len(fwdCap), s.nEdges)
	}
	if s.negCost { // the last session left Bellman–Ford potentials behind
		for i := range s.node {
			s.node[i].pot = 0
		}
	}
	s.negCost = false
	for i := range g.edges {
		e := &g.edges[i]
		c := e.Capacity
		if fwdCap != nil {
			c = fwdCap[i]
		}
		if !(c >= 0) {
			return fmt.Errorf("graph: capacity %v of edge %d is not a non-negative number", c, i)
		}
		s.rcap[2*i], s.rcap[2*i+1] = c, 0
		s.cost[2*i], s.cost[2*i+1] = e.Cost, -e.Cost
		if e.Cost < 0 {
			s.negCost = true
		}
	}
	s.touched, s.exhausted = s.touched[:0], false
	return nil
}

// Route ships a minimum-cost flow of up to limit units from src to dst
// on the loaded residual and leaves it there, uncommitted: Flow reads it,
// Commit folds it in, and Commit or Load must come before the next Route.
// The result carries Value, Cost and Stats; EdgeFlow is nil.
//
// Potentials start at zero when no loaded cost is negative (only forward
// arcs are open between Routes, so every reduced cost is already >= 0),
// otherwise from Bellman–Ford distances. Each phase stops when dst
// settles and moves only the settled nodes nearer than dst, by
// dist[v] - dist[dst]: the capped rule pot[v] += min(dist[v], dist[dst])
// over all nodes, less a constant.
func (s *MCFSolver) Route(src, dst NodeID, limit float64) (FlowResult, error) {
	if src < 0 || int(src) >= s.nNodes || dst < 0 || int(dst) >= s.nNodes {
		return FlowResult{}, fmt.Errorf("graph: MinCostFlow endpoints invalid: %d -> %d", int(src), int(dst))
	}
	if len(s.touched) != 0 {
		return FlowResult{}, fmt.Errorf("graph: Route on a residual with uncommitted flow")
	}
	s.exhausted = false
	if src == dst {
		return FlowResult{}, nil
	}
	if limit < 0 || math.IsNaN(limit) {
		return FlowResult{}, fmt.Errorf("graph: MinCostFlow limit %v invalid", limit)
	}
	nodes := s.node
	if s.negCost {
		if s.bellmanFord(src) {
			return FlowResult{}, fmt.Errorf("graph: negative-cost cycle reachable from source")
		}
	} else {
		for _, v := range s.moved {
			nodes[v].pot = 0
		}
	}
	s.moved = s.moved[:0]

	var res FlowResult
	for res.Value+Eps < limit {
		res.Stats.Phases++
		found, err := s.search(src, dst, &res.Stats)
		if err != nil {
			return FlowResult{}, err
		}
		if !found {
			s.exhausted = true
			break // no augmenting path left
		}
		// Potentials move by at most dist[dst] per phase and must stay
		// within the problem's scale: catch unbounded growth loudly.
		dd := nodes[dst].dist
		for _, v := range s.settled {
			n := &nodes[v]
			if n.dist >= dd {
				continue
			}
			if !s.negCost && n.pot >= 0 {
				// Zero-start potentials only ever fall, so this is v's
				// first move since the Route began.
				s.moved = append(s.moved, v)
			}
			n.pot += n.dist - dd
			if !(n.pot >= -potBound && n.pot <= potBound) { // also catches NaN
				return FlowResult{}, fmt.Errorf("graph: potential %v at node %d out of bounds (unbounded growth)", n.pot, v)
			}
		}
		// Find bottleneck along the path.
		push := limit - res.Value
		for v := dst; v != src; {
			a := nodes[v].prev
			if s.rcap[a] < push {
				push = s.rcap[a]
			}
			v = s.head[a^1]
		}
		if push <= Eps {
			break
		}
		// Apply. A push is a minimum over the path's residuals, so no
		// residual goes below zero.
		for v := dst; v != src; {
			a := nodes[v].prev
			if a&1 == 0 && s.rcap[a^1] <= 0 {
				s.touched = append(s.touched, EdgeID(a>>1))
			}
			s.rcap[a] -= push
			s.rcap[a^1] += push
			res.Cost += push * s.cost[a]
			v = s.head[a^1]
		}
		res.Value += push
		res.Stats.Augmentations++
	}
	return res, nil
}

// search runs one Dijkstra phase on reduced costs from src until dst is
// settled and reports whether it was; s.settled holds what it settled.
// Pops counts every dequeue up to and including the one that settles
// dst, Relaxations every open arc examined.
func (s *MCFSolver) search(src, dst NodeID, stats *SolveStats) (bool, error) {
	s.epoch++
	if s.epoch == 0 { // wrapped: stamps of the first lap would read as current
		for i := range s.node {
			s.node[i].seen, s.node[i].done = 0, 0
		}
		s.epoch = 1
	}
	ep, nodes := s.epoch, s.node
	nodes[src].seen, nodes[src].dist, nodes[src].prev = ep, 0, -1
	s.pq = s.pq[:0]
	s.pq.push(int32(src), 0)
	s.settled = s.settled[:0]
	var pops, relaxations int
	found := false
	for len(s.pq) > 0 {
		u := s.pq.pop().node
		pops++
		nu := &nodes[u]
		if nu.done == ep {
			continue
		}
		nu.done = ep
		s.settled = append(s.settled, NodeID(u))
		if NodeID(u) == dst {
			found = true
			break
		}
		du, pu := nu.dist, nu.pot
		for k, end := s.arcStart[u], s.arcStart[u+1]; k < end; k++ {
			a := s.arcs[k]
			if s.rcap[a] <= Eps {
				continue
			}
			relaxations++
			v := s.head[a]
			nv := &nodes[v]
			rc := s.cost[a] + pu - nv.pot
			if rc < 0 {
				// Numerical slack: clamp tiny negatives, at a
				// tolerance scaled to the operand magnitudes.
				if rc < -negRCTol(s.cost[a], pu, nv.pot) {
					return false, fmt.Errorf("graph: negative reduced cost %v (potential invariant broken)", rc)
				}
				rc = 0
			}
			dv := math.Inf(1)
			if nv.seen == ep {
				dv = nv.dist
			}
			if nd := du + rc; nd+Eps < dv {
				nv.seen, nv.dist, nv.prev = ep, nd, a
				s.pq.push(int32(v), nd)
			}
		}
	}
	stats.Pops += pops
	stats.Relaxations += relaxations
	return found, nil
}

// Flow writes the uncommitted flow of every edge the last Route pushed
// flow over into flow (indexed by EdgeID; other entries are left alone)
// and returns those edges. The list is valid until the next Commit, Load
// or Route.
func (s *MCFSolver) Flow(flow []float64) []EdgeID {
	for _, e := range s.touched {
		flow[e] = s.rcap[2*e+1] // what its backward arc accumulated
	}
	return s.touched
}

// Commit makes the last Route's flow permanent: for each edge it pushed
// flow over, the flow is added to total (which must cover every edge) and
// the backward arc returns to zero, so the forward residual is the
// capacity left for the Routes that follow.
func (s *MCFSolver) Commit(total []float64) {
	for _, e := range s.touched {
		if f := s.rcap[2*e+1]; f > Eps {
			total[e] += f
		}
		s.rcap[2*e+1] = 0
	}
	s.touched = s.touched[:0]
}

// Exhausted returns the nodes the last Route's final search reached from
// the source if that search could not reach the sink, nil otherwise
// (valid until the next Route). Until the next Load the open arcs of a
// committed residual only ever close, so no later Route from that source
// can reach a node outside the set.
func (s *MCFSolver) Exhausted() []NodeID {
	if !s.exhausted {
		return nil
	}
	return s.settled
}

// Solve is the one-shot form of the session — Load, one Route, export
// the flows — and what Graph.MinCostFlow runs on a fresh solver.
//
// fwdCap, when non-nil, overrides the forward capacity of every edge
// (indexed by EdgeID). Nil means the graph's own capacities. Costs
// always come from the graph.
//
// flowOut, when non-nil, receives the per-edge net flow (it must have
// length NumEdges) and is aliased as the result's EdgeFlow, so the
// steady-state solve allocates nothing. Nil allocates a fresh slice.
func (s *MCFSolver) Solve(src, dst NodeID, limit float64, fwdCap, flowOut []float64) (FlowResult, error) {
	if err := s.Load(fwdCap); err != nil {
		return FlowResult{}, err
	}
	if flowOut == nil {
		flowOut = make([]float64, s.nEdges)
	} else if len(flowOut) != s.nEdges {
		return FlowResult{}, fmt.Errorf("graph: flowOut has %d entries for %d edges", len(flowOut), s.nEdges)
	}
	res, err := s.Route(src, dst, limit)
	if err != nil {
		return FlowResult{}, err
	}
	clear(flowOut)
	s.Flow(flowOut)
	res.EdgeFlow = flowOut
	return res, nil
}

// bellmanFord sets the potentials to the shortest distances by cost from
// src over the open forward arcs (0 where unreachable: unused) and
// reports whether a negative cycle is reachable from src. Iteration
// order and Eps tolerances are Graph.BellmanFord's.
func (s *MCFSolver) bellmanFord(src NodeID) (negCycle bool) {
	nodes, n := s.node, s.nNodes
	for i := range nodes {
		nodes[i].pot = math.Inf(1)
	}
	nodes[src].pot = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for i := 0; i < s.nEdges; i++ {
			if s.rcap[2*i] <= Eps {
				continue
			}
			e := &s.g.edges[i]
			from := nodes[e.From].pot
			if math.IsInf(from, 1) {
				continue
			}
			if nd := from + e.Cost; nd+Eps < nodes[e.To].pot {
				nodes[e.To].pot = nd
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
	for i := range nodes {
		if math.IsInf(nodes[i].pot, 1) {
			nodes[i].pot = 0
		}
	}
	return false
}
