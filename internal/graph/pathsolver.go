package graph

import (
	"fmt"
	"math"
	"sort"
)

// PathSolver is the reusable shortest-path kernel bound to one graph:
// the minimum-Weight Dijkstra with the Yen k-shortest-paths built on it,
// and the shortest-path tree over caller-supplied lengths (Tree) that
// te.MaxConcurrent's Garg–Könemann steps run on. It
// holds the positive-capacity arcs in CSR (flat-slice) form plus every
// scratch buffer a search needs, so the thousands of searches behind
// one TE round (te.KPath runs Yen for every demand, te.MaxConcurrent
// grows one tree per source and step) neither allocate scratch nor look
// anything up in a map. Graph.ShortestPathDijkstraStats
// and Graph.KShortestPathsStats build a fresh solver per call, so there
// is one implementation and it returns the same paths either way.
//
// Three things keep a search cheap:
//
//   - Refresh compacts the arcs with Capacity > Eps, in g.Out order,
//     into one array; zero-capacity edges (most fake edges of an
//     augmented graph) are never touched by the inner loop.
//   - Per-node distance/settled state and the per-spur edge and node
//     bans of Yen are stamped with the search's epoch, so starting a
//     search is one increment, not an O(V) clear or a map per spur.
//   - A search stops when dst is settled. With non-negative lengths the
//     pops are non-decreasing in distance, so a settled node's distance
//     and predecessor — and those of every node on its path back to src
//     — can never change afterwards: the path is the one a full run
//     would return.
//
// What is deliberately NOT done: anything that changes the pop order or
// the strict `nd+Eps < dist` relaxation (A*, bidirectional search,
// Lawler's pruning). IGP weights are small integers and every fake edge
// parallels a real one at equal weight, so ties are the common case and
// the tie-break — heap layout and out-edge order — decides which of the
// equal-weight paths a demand gets.
//
// The solver reads capacities and weights at Refresh, not per search:
// call Refresh after mutating the graph. Not safe for concurrent use.
type PathSolver struct {
	g *Graph

	// CSR over the arcs open at the last Refresh: node u's arcs are
	// arcs[start[u]:start[u+1]], in g.Out(u) order; from[a] is arc a's
	// tail, so walking a found path back to its source reads 4-byte
	// entries instead of 72-byte Edge structs.
	start []int32
	arcs  []pathArc
	from  []int32

	// Epoch-stamped scratch: a stamp equal to epoch means "set during
	// the current search", anything else means unset.
	epoch   uint32
	node    []pathNode
	banEdge []uint32 // by EdgeID: banned for the current spur search
	pq      distHeap

	edges []EdgeID // candidate edge list under construction
}

// pathArc is one positive-capacity edge in CSR order.
type pathArc struct {
	to   int32
	edge int32
	w    float64
}

// pathNode is the per-node search state, packed so a relaxation touches
// one cache line per endpoint.
type pathNode struct {
	dist   float64
	prev   int32  // arc that last improved dist
	seen   uint32 // epoch at which dist/prev were written
	done   uint32 // epoch at which the node was settled
	banned uint32 // epoch at which Yen banned the node (root of a spur)
	want   uint32 // epoch at which Tree was asked to settle the node
}

// NewPathSolver returns a solver over g's current capacities and
// weights.
func NewPathSolver(g *Graph) *PathSolver {
	s := &PathSolver{g: g}
	s.Refresh()
	return s
}

// Refresh re-reads the bound graph: structure, weights and which edges
// have Capacity > Eps. It reuses the solver's buffers, so in steady
// state (same structure) it does not allocate.
func (s *PathSolver) Refresh() {
	g := s.g
	n := g.NumNodes()
	if len(s.node) != n || len(s.banEdge) != g.NumEdges() {
		s.node = make([]pathNode, n)
		s.banEdge = make([]uint32, g.NumEdges())
		s.epoch = 0
	}
	s.start = grow(s.start, n+1)
	s.arcs, s.from = s.arcs[:0], s.from[:0]
	for u := 0; u < n; u++ {
		s.start[u] = int32(len(s.arcs))
		for _, id := range g.out[u] {
			e := &g.edges[id]
			if e.Capacity <= Eps {
				continue
			}
			s.arcs = append(s.arcs, pathArc{to: int32(e.To), edge: int32(id), w: e.Weight})
			s.from = append(s.from, int32(u))
		}
	}
	s.start[n] = int32(len(s.arcs))
}

// begin opens a new epoch, invalidating every stamp of the previous
// search in O(1).
func (s *PathSolver) begin() {
	s.epoch++
	if s.epoch == 0 {
		// Wrapped after 2^32 searches: stamps from the first lap would
		// read as current. Clear them once and restart the count.
		for i := range s.node {
			s.node[i] = pathNode{}
		}
		for i := range s.banEdge {
			s.banEdge[i] = 0
		}
		s.epoch = 1
	}
}

// search runs Dijkstra from src in the current epoch (the caller has
// called begin and stamped any bans) until dst is settled, and reports
// whether it was reached. It panics on a negative length. A non-nil
// stats receives Pops (every dequeue, stale ones included, up to and
// including the one that settles dst) and Relaxations (every open,
// un-banned arc examined).
func (s *PathSolver) search(src, dst NodeID, stats *SolveStats) bool {
	ep, nodes, arcs, banEdge := s.epoch, s.node, s.arcs, s.banEdge
	nodes[src].seen, nodes[src].dist, nodes[src].prev = ep, 0, -1
	s.pq = s.pq[:0]
	s.pq.push(int32(src), 0)
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
		if NodeID(u) == dst {
			found = true
			break
		}
		du := nu.dist
		for a, end := s.start[u], s.start[u+1]; a < end; a++ {
			arc := &arcs[a]
			nv := &nodes[arc.to]
			if banEdge[arc.edge] == ep || nv.banned == ep {
				continue
			}
			relaxations++
			l := arc.w
			if l < 0 {
				if l < -Eps {
					panic(fmt.Sprintf("graph: negative edge length %v on edge %d", l, arc.edge))
				}
				l = 0
			}
			dv := math.Inf(1)
			if nv.seen == ep {
				dv = nv.dist
			}
			if nd := du + l; nd+Eps < dv {
				nv.seen, nv.dist, nv.prev = ep, nd, a
				s.pq.push(arc.to, nd)
			}
		}
	}
	if stats != nil {
		stats.Pops += pops
		stats.Relaxations += relaxations
	}
	return found
}

// Tree grows the shortest-path tree from src over the edges open at the
// last Refresh, with length[id] (indexed by EdgeID; the edges' Weight is
// not read) as edge id's length, and stops once every node of sinks is
// settled. It reports whether all of them were reached; Settled and
// AppendPath then read the tree until the next search. By the argument
// on the type, the path to each settled sink is the one a single-sink
// search over the same lengths returns.
//
// Unlike search it relaxes on a strict nd < dist with no Eps slack and
// panics on any negative length: Garg–Könemann lengths start near δ/cap
// (1e-30 and below), where a 1e-9 tolerance would make every path a tie.
// A non-nil stats receives Pops and Relaxations, counted as search does.
func (s *PathSolver) Tree(src NodeID, sinks []NodeID, length []float64, stats *SolveStats) bool {
	s.begin()
	ep, nodes, arcs := s.epoch, s.node, s.arcs
	pending := 0
	for _, t := range sinks {
		if nodes[t].want != ep {
			nodes[t].want = ep
			pending++
		}
	}
	nodes[src].seen, nodes[src].dist, nodes[src].prev = ep, 0, -1
	s.pq = s.pq[:0]
	s.pq.push(int32(src), 0)
	var pops, relaxations int
	for pending > 0 && len(s.pq) > 0 {
		u := s.pq.pop().node
		pops++
		nu := &nodes[u]
		if nu.done == ep {
			continue
		}
		nu.done = ep
		if nu.want == ep {
			if pending--; pending == 0 {
				break
			}
		}
		du := nu.dist
		for a, end := s.start[u], s.start[u+1]; a < end; a++ {
			arc := &arcs[a]
			relaxations++
			l := length[arc.edge]
			if l < 0 {
				panic(fmt.Sprintf("graph: negative edge length %v on edge %d", l, arc.edge))
			}
			nv := &nodes[arc.to]
			dv := math.Inf(1)
			if nv.seen == ep {
				dv = nv.dist
			}
			if nd := du + l; nd < dv {
				nv.seen, nv.dist, nv.prev = ep, nd, a
				s.pq.push(arc.to, nd)
			}
		}
	}
	if stats != nil {
		stats.Pops += pops
		stats.Relaxations += relaxations
	}
	return pending == 0
}

// Settled reports whether the last search or Tree settled v, i.e.
// whether AppendPath may be asked for the path to it.
func (s *PathSolver) Settled(v NodeID) bool { return s.node[v].done == s.epoch }

// AppendPath appends to buf, in path order, the edges of the src→dst
// path the last search (or Tree rooted at src) found; dst must have been
// settled by it.
func (s *PathSolver) AppendPath(buf []EdgeID, src, dst NodeID) []EdgeID {
	base := len(buf)
	for at := int32(dst); at != int32(src); {
		a := s.node[at].prev
		buf = append(buf, EdgeID(s.arcs[a].edge))
		at = s.from[a]
	}
	for i, j := base, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// pathFrom builds the Path that starts at src and follows edges (which
// it copies), with its total Weight summed in path order.
func (s *PathSolver) pathFrom(src NodeID, edges []EdgeID) (Path, float64) {
	p := Path{
		Edges: append([]EdgeID(nil), edges...),
		Nodes: make([]NodeID, 1, len(edges)+1),
	}
	p.Nodes[0] = src
	var w float64
	for _, id := range edges {
		e := &s.g.edges[id]
		p.Nodes = append(p.Nodes, e.To)
		w += e.Weight
	}
	return p, w
}

// ShortestPath returns a minimum-Weight path from src to dst over the
// edges open at the last Refresh, its distance, and whether dst is
// reachable. A non-nil stats receives the search's Pops and
// Relaxations (the caller owns Phases).
func (s *PathSolver) ShortestPath(src, dst NodeID, stats *SolveStats) (Path, float64, bool) {
	s.begin()
	if !s.search(src, dst, stats) {
		return Path{}, 0, false
	}
	s.edges = s.AppendPath(s.edges[:0], src, dst)
	p, _ := s.pathFrom(src, s.edges)
	return p, s.node[dst].dist, true
}

// yenCandidate is a spur path waiting in Yen's candidate list, with its
// weight computed once rather than on every sort comparison.
type yenCandidate struct {
	path   Path
	weight float64
}

// KShortestPaths returns up to k loopless minimum-Weight paths from src
// to dst in ascending weight order (Yen's algorithm) over the edges
// open at the last Refresh. A non-nil stats receives one Phase per
// Dijkstra run (the initial one plus every spur search) and the pooled
// Pops/Relaxations across them.
func (s *PathSolver) KShortestPaths(src, dst NodeID, k int, stats *SolveStats) []Path {
	if k <= 0 {
		return nil
	}
	if stats != nil {
		stats.Phases++
	}
	first, _, ok := s.ShortestPath(src, dst, stats)
	if !ok {
		return nil
	}
	result := []Path{first}
	var candidates []yenCandidate

	for len(result) < k {
		prev := result[len(result)-1]
		// For each node in the previous path except the last, branch.
		for i := 0; i < len(prev.Nodes)-1; i++ {
			spurNode := prev.Nodes[i]
			rootEdges := prev.Edges[:i]

			s.begin()
			// Ban edges that would recreate an already-found path with
			// the same root.
			for _, p := range result {
				if len(p.Edges) > i && equalEdges(p.Edges[:i], rootEdges) {
					s.banEdge[p.Edges[i]] = s.epoch
				}
			}
			// Ban root nodes (loopless requirement).
			for _, nd := range prev.Nodes[:i] {
				s.node[nd].banned = s.epoch
			}

			if stats != nil {
				stats.Phases++
			}
			if !s.search(spurNode, dst, stats) {
				continue
			}
			s.edges = s.AppendPath(append(s.edges[:0], rootEdges...), spurNode, dst)
			if containsCandidate(candidates, s.edges) || containsPath(result, s.edges) {
				continue
			}
			p, w := s.pathFrom(src, s.edges)
			candidates = append(candidates, yenCandidate{path: p, weight: w})
		}
		if len(candidates) == 0 {
			break
		}
		// sort.Slice is not stable: the permutation depends on the input
		// order and the comparison outcomes, both kept as they always
		// were, so equal-(weight, hops) candidates surface in the same
		// order.
		sort.Slice(candidates, func(a, b int) bool {
			wa, wb := candidates[a].weight, candidates[b].weight
			if wa != wb { //nolint:nofloateq // comparator tie-break: tolerance would break strict weak ordering
				return wa < wb
			}
			return candidates[a].path.Len() < candidates[b].path.Len()
		})
		result = append(result, candidates[0].path)
		candidates = candidates[1:]
	}
	return result
}

func equalEdges(a, b []EdgeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsPath(ps []Path, edges []EdgeID) bool {
	for _, q := range ps {
		if equalEdges(q.Edges, edges) {
			return true
		}
	}
	return false
}

func containsCandidate(cs []yenCandidate, edges []EdgeID) bool {
	for _, c := range cs {
		if equalEdges(c.path.Edges, edges) {
			return true
		}
	}
	return false
}
