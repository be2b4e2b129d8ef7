package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// PathSolver is the reusable shortest-path kernel bound to one graph:
// the minimum-Weight Dijkstra with the Yen k-shortest-paths built on it,
// and the shortest-path tree over caller-supplied lengths (Tree) that
// te.MaxConcurrent's Garg–Könemann steps run on. It
// holds the positive-capacity arcs in CSR (flat-slice) form plus every
// scratch buffer a search needs, so the thousands of searches behind
// one TE round (te.KPath runs Yen for every demand, te.MaxConcurrent
// grows its per-source trees) neither allocate scratch nor look
// anything up in a map. Graph.ShortestPathDijkstraStats
// and Graph.KShortestPathsStats build a fresh solver per call, so there
// is one implementation and it returns the same paths either way.
//
// Five things keep a search cheap:
//
//   - Refresh compacts the arcs with Capacity > Eps, in g.Out order,
//     into one array; zero-capacity edges (most fake edges of an
//     augmented graph) are never touched by the inner loop.
//   - Refresh also groups each node's open arcs by (head, Weight), and a
//     Weight search relaxes only each group's first arc everywhere but
//     at its source. A live fake edge is an exact twin of its real
//     edge, and a twin that comes second can never pass the strict
//     relaxation its leader already decided (see source).
//   - Per-node distance/settled state and the per-spur edge and node
//     bans of Yen are stamped with the search's epoch, so starting a
//     search is one increment, not an O(V) clear or a map per spur.
//   - A search stops when dst is settled. With non-negative lengths the
//     pops are non-decreasing in distance, so a settled node's distance
//     and predecessor — and those of every node on its path back to src
//     — can never change afterwards: the path is the one a full run
//     would return.
//   - Within one KShortestPaths call, a spur search whose banned root
//     nodes and heap after the spur node's relaxation repeat an earlier
//     one's takes that one's path beyond its first edge instead of
//     settling again (see spurPath). On an augmented graph most of
//     Yen's paths are twin swaps of an earlier one, which repeat most
//     of its spur searches.
//
// What is deliberately NOT done: anything that changes the pop order or
// the strict `nd+Eps < dist` relaxation (A*, bidirectional search), or
// the number of spur searches (Lawler's pruning), and any reuse across
// calls. IGP weights are small integers and every fake edge parallels a
// real one at equal weight, so ties are the common case and the
// tie-break — heap layout and out-edge order — decides which of the
// equal-weight paths a demand gets.
//
// The solver reads capacities and weights at Refresh, not per search:
// call Refresh after mutating the graph. Not safe for concurrent use.
type PathSolver struct {
	g *Graph

	// CSR over the arcs open at the last Refresh: node u's arcs are
	// arcs[start[u]:start[u+1]], in g.Out(u) order.
	start []int32
	arcs  []pathArc

	// The same arcs collapsed into twin groups: node u's groups are
	// groups[gstart[u]:gstart[u+1]], one per distinct (head, Weight bits)
	// among its arcs, in the order of each group's first arc. headAt (by
	// node) and chain (by group) are Refresh's scratch for finding a
	// tail's existing group of a head: the latest such group, and the
	// one before it; -1 ends a chain.
	gstart []int32
	groups []pathGroup
	headAt []int32
	chain  []int32
	spur   []pathGroup // the current search source's arcs, ungrouped

	// Epoch-stamped scratch: a stamp equal to epoch means "set during
	// the current search", anything else means unset.
	epoch   uint32
	node    []pathNode
	banEdge []uint32 // by EdgeID: banned for the current spur search
	pq      distHeap

	// arena holds the edge lists of Yen's candidates (and ShortestPath's
	// one path) for the current call; cands index into it.
	arena []EdgeID
	cands byWeight

	// memo holds the current KShortestPaths call's spur searches, keyed
	// by words in memoKey, with their paths' tails in memoTail.
	memo     []spurMemo
	memoKey  []uint64
	memoTail []EdgeID

	// The slabs returned paths are cut from. They only grow: a returned
	// Path's Edges and Nodes alias them (capped, so a caller's append
	// copies), and a full slab is replaced, never reused.
	edgeSlab []EdgeID
	nodeSlab []NodeID
}

// pathArc is one positive-capacity edge in CSR order.
type pathArc struct {
	to   int32
	edge int32
	w    float64
}

// pathGroup is a tail's open arcs to one head at one Weight: arc is the
// CSR index of the first of them, n how many there are.
type pathGroup struct {
	w   float64
	to  int32
	arc int32
	n   int32
}

// pathNode is the per-node search state, packed so a relaxation touches
// one cache line per endpoint.
type pathNode struct {
	dist   float64
	prev   int32  // arc that last improved dist
	from   int32  // that arc's tail, so a path walk chases node entries only
	seen   uint32 // epoch at which dist/prev/from were written
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
		s.headAt = make([]int32, n)
		for i := range s.headAt {
			s.headAt[i] = -1
		}
	}
	s.start, s.gstart = grow(s.start, n+1), grow(s.gstart, n+1)
	s.arcs = s.arcs[:0]
	s.groups, s.chain = s.groups[:0], s.chain[:0]
	for u := 0; u < n; u++ {
		s.start[u] = int32(len(s.arcs))
		s.gstart[u] = int32(len(s.groups))
		for _, id := range g.out[u] {
			e := &g.edges[id]
			if e.Capacity <= Eps {
				continue
			}
			s.addToGroup(int32(len(s.arcs)), int32(e.To), e.Weight)
			s.arcs = append(s.arcs, pathArc{to: int32(e.To), edge: int32(id), w: e.Weight})
		}
		for _, gr := range s.groups[s.gstart[u]:] {
			s.headAt[gr.to] = -1
		}
	}
	s.start[n] = int32(len(s.arcs))
	s.gstart[n] = int32(len(s.groups))
}

// addToGroup files arc a (to head to, at Weight w) of the tail Refresh
// is compacting: into the tail's group of the same head and Weight
// bits if there is one, else into a new group it leads.
func (s *PathSolver) addToGroup(a, to int32, w float64) {
	bits := math.Float64bits(w)
	for gi := s.headAt[to]; gi >= 0; gi = s.chain[gi] {
		if math.Float64bits(s.groups[gi].w) == bits {
			s.groups[gi].n++
			return
		}
	}
	s.chain = append(s.chain, s.headAt[to])
	s.headAt[to] = int32(len(s.groups))
	s.groups = append(s.groups, pathGroup{w: w, to: to, arc: a, n: 1})
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
// un-banned arc examined; a twin group's followers count as examined
// by their leader).
//
// It runs in two steps, source and settle, so that Yen can look at the
// heap between them (see spurPath).
func (s *PathSolver) search(src, dst NodeID, stats *SolveStats) bool {
	return s.source(src, dst, stats) || s.settle(dst, stats)
}

// source settles src at distance 0, as the pop of a heap holding only
// src would, and reports whether src is dst. Otherwise it relaxes src's
// un-banned arcs, leaving their heads on the emptied heap. It counts
// that one pop and those relaxations.
//
// At src it relaxes every open arc, because Yen's edge bans are per
// arc, and they are all out of src: a ban is p.Edges[i] for a found p
// with p.Edges[:i] equal to the spur's root, so p.Nodes[i] is the spur
// node. Everywhere else (settle) only each twin group's leader is
// relaxed: a follower has the leader's head, hence its node ban, and
// its nd, so once the leader has set dist to nd, or failed nd+Eps <
// dist, the follower fails it too — dist only falls — so skipping it
// skips no push, predecessor or panic a full scan would make.
func (s *PathSolver) source(src, dst NodeID, stats *SolveStats) bool {
	nu := &s.node[src]
	nu.seen, nu.done, nu.dist, nu.prev = s.epoch, s.epoch, 0, -1
	s.pq = s.pq[:0]
	relaxations := 0
	if src != dst {
		relaxations = s.relax(int32(src), 0, s.spurArcs(src))
	}
	if stats != nil {
		stats.Pops++
		stats.Relaxations += relaxations
	}
	return src == dst
}

// settle pops the heap source left until dst is settled, and reports
// whether it was reached.
func (s *PathSolver) settle(dst NodeID, stats *SolveStats) bool {
	ep, nodes := s.epoch, s.node
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
		relaxations += s.relax(u, nu.dist, s.groups[s.gstart[u]:s.gstart[u+1]])
	}
	if stats != nil {
		stats.Pops += pops
		stats.Relaxations += relaxations
	}
	return found
}

// relax relaxes groups, arcs out of u settled at du, pushing every head
// whose distance improves, and returns how many arcs it examined.
func (s *PathSolver) relax(u int32, du float64, groups []pathGroup) int {
	ep, nodes := s.epoch, s.node
	relaxations := 0
	for i := range groups {
		gr := &groups[i]
		nv := &nodes[gr.to]
		if nv.banned == ep {
			continue
		}
		relaxations += int(gr.n)
		l := gr.w
		if l < 0 {
			if l < -Eps {
				panic(fmt.Sprintf("graph: negative edge length %v on edge %d", l, s.arcs[gr.arc].edge))
			}
			l = 0
		}
		dv := math.Inf(1)
		if nv.seen == ep {
			dv = nv.dist
		}
		if nd := du + l; nd+Eps < dv {
			nv.seen, nv.dist, nv.prev, nv.from = ep, nd, gr.arc, u
			s.pq.push(gr.to, nd)
		}
	}
	return relaxations
}

// spurArcs returns src's open arcs that the current epoch does not ban,
// each as a group of one, in CSR order.
func (s *PathSolver) spurArcs(src NodeID) []pathGroup {
	s.spur = s.spur[:0]
	for a, end := s.start[src], s.start[src+1]; a < end; a++ {
		if arc := &s.arcs[a]; s.banEdge[arc.edge] != s.epoch {
			s.spur = append(s.spur, pathGroup{w: arc.w, to: arc.to, arc: a, n: 1})
		}
	}
	return s.spur
}

// Tree grows the shortest-path tree from src over the edges open at the
// last Refresh, with length[id] (indexed by EdgeID; the edges' Weight is
// not read) as edge id's length, and stops once every node of sinks is
// settled. It reports whether all of them were reached; Settled, Dist
// and AppendPath then read the tree until the next search. By the argument
// on the type, the path to each settled sink is the one a single-sink
// search over the same lengths returns.
//
// Unlike search it relaxes on a strict nd < dist with no Eps slack and
// panics on any negative length: Garg–Könemann lengths start near δ/cap
// (1e-30 and below), where a 1e-9 tolerance would make every path a tie.
// It also relaxes every open arc, not twin-group leaders: length is per
// edge (Garg–Könemann's starts at δ/cap and grows with the edge's own
// load), so twins by Weight are not twins by length. A non-nil stats
// receives Pops and Relaxations, one per arc examined.
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
				nv.seen, nv.dist, nv.prev, nv.from = ep, nd, a, u
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
// whether Dist and AppendPath may be asked about it.
func (s *PathSolver) Settled(v NodeID) bool { return s.node[v].done == s.epoch }

// Dist returns v's distance from the root in the last search or Tree,
// the sum of its path's lengths in path order; v must be settled by it.
func (s *PathSolver) Dist(v NodeID) float64 { return s.node[v].dist }

// AppendPath appends to buf, in path order, the edges of the src→dst
// path the last search (or Tree rooted at src) found; dst must have been
// settled by it.
func (s *PathSolver) AppendPath(buf []EdgeID, src, dst NodeID) []EdgeID {
	base := len(buf)
	for at := int32(dst); at != int32(src); {
		nv := &s.node[at]
		buf = append(buf, EdgeID(s.arcs[nv.prev].edge))
		at = nv.from
	}
	for i, j := base, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// newPath returns the Path that starts at src and follows edges, with
// its Edges (nil when there are none, as a fresh append would leave
// them) and Nodes cut from the solver's slabs.
func (s *PathSolver) newPath(src NodeID, edges []EdgeID) Path {
	var p Path
	if n := len(edges); n > 0 {
		if cap(s.edgeSlab)-len(s.edgeSlab) < n {
			s.edgeSlab = make([]EdgeID, 0, max(n, 2*cap(s.edgeSlab)))
		}
		lo := len(s.edgeSlab)
		s.edgeSlab = append(s.edgeSlab, edges...)
		p.Edges = s.edgeSlab[lo:len(s.edgeSlab):len(s.edgeSlab)]
	}
	if n := len(edges) + 1; cap(s.nodeSlab)-len(s.nodeSlab) < n {
		s.nodeSlab = make([]NodeID, 0, max(n, 2*cap(s.nodeSlab)))
	}
	lo := len(s.nodeSlab)
	s.nodeSlab = append(s.nodeSlab, src)
	for _, id := range edges {
		s.nodeSlab = append(s.nodeSlab, s.g.edges[id].To)
	}
	p.Nodes = s.nodeSlab[lo:len(s.nodeSlab):len(s.nodeSlab)]
	return p
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
	s.arena = s.AppendPath(s.arena[:0], src, dst)
	return s.newPath(src, s.arena), s.node[dst].dist, true
}

// yenCandidate is a spur path waiting in Yen's candidate list: its
// edges are arena[off:off+n], and its hash (for dedupe) and weight
// (for the sort) are computed once when it is created.
type yenCandidate struct {
	off, n int32
	hash   uint64
	weight float64
}

// KShortestPaths returns up to k loopless minimum-Weight paths from src
// to dst in ascending weight order (Yen's algorithm) over the edges
// open at the last Refresh. A non-nil stats receives one Phase per
// Dijkstra run (the initial one plus every spur search, repeated ones
// included) and the pooled Pops/Relaxations across them.
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
	// A candidate's edges stay in the arena until the call ends, won or
	// lost; cands lists the ones still waiting.
	s.arena, s.cands = s.arena[:0], s.cands[:0]
	s.memo, s.memoKey, s.memoTail = s.memo[:0], s.memoKey[:0], s.memoTail[:0]

	for len(result) < k {
		prev := result[len(result)-1]
		// For each node in the previous path except the last, branch.
		for i := 0; i < len(prev.Nodes)-1; i++ {
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
			off := len(s.arena)
			if !s.spurPath(prev.Nodes[:i+1], rootEdges, dst, stats) {
				continue
			}
			edges := s.arena[off:]
			h := fnv1a(edges)
			if s.waiting(h, edges) || containsPath(result, edges) {
				s.arena = s.arena[:off]
				continue
			}
			s.cands = append(s.cands, yenCandidate{off: int32(off), n: int32(len(edges)), hash: h, weight: s.weight(edges)})
		}
		if len(s.cands) == 0 {
			break
		}
		// The sort is not stable: the permutation depends on the input
		// order and the comparison outcomes, both kept as they always
		// were, so equal-(weight, hops) candidates surface in the same
		// order. sort.Sort runs the pdqsort sort.Slice runs (both are
		// generated from one template) without sort.Slice's reflection
		// and closure allocations.
		sort.Sort(&s.cands)
		c := s.cands[0]
		result = append(result, s.newPath(src, s.arena[c.off:c.off+c.n]))
		s.cands = append(s.cands[:0], s.cands[1:]...)
	}
	return result
}

// spurPath runs one spur search of Yen from the last node of prefix,
// whose other nodes (and, at the spur node, the found paths' next
// edges) the caller has banned, and reports whether it reached dst. If
// it did, it appends the candidate, rootEdges then the spur path, to
// the arena.
//
// Searches repeat within one call: a path that differs from an earlier
// one only by a twin (a fake edge beside its real edge, at the same
// Weight) bans the same root nodes and, at the spur node, the same set
// of heads at the same distances. Once source has relaxed the spur
// node, the rest of the search reads only the epoch's node state —
// the root-node bans and the heads source pushed, whose distances are
// in the heap — and the heap itself; edge bans act at the spur node
// alone. So whether dst is reached, and every node's dist and
// predecessor, are a function of the key (prefix, heap items as
// (node, dist bits) in heap order), except the predecessor arc of the
// path's first head, which the current relaxation chose. (The key
// starts with the prefix length, so prefix and heap cannot run into
// each other.) A repeated
// key therefore takes the first edge from that relaxation and the rest
// of the path from the memo, and skips settle; it still counts its
// Phase, source's pop and source's relaxations.
func (s *PathSolver) spurPath(prefix []NodeID, rootEdges []EdgeID, dst NodeID, stats *SolveStats) bool {
	spurNode := prefix[len(prefix)-1]
	s.source(spurNode, dst, stats)
	key := len(s.memoKey)
	s.memoKey = append(s.memoKey, uint64(len(prefix)))
	for _, nd := range prefix {
		s.memoKey = append(s.memoKey, uint64(nd))
	}
	for _, it := range s.pq {
		s.memoKey = append(s.memoKey, uint64(it.node), math.Float64bits(it.dist))
	}
	h := fnv1a(s.memoKey[key:])
	for _, m := range s.memo {
		if m.hash != h || !slices.Equal(s.memoKey[m.key:m.key+m.nkey], s.memoKey[key:]) {
			continue
		}
		s.memoKey = s.memoKey[:key]
		if m.head < 0 {
			return false
		}
		s.arena = append(s.arena, rootEdges...)
		s.arena = append(s.arena, EdgeID(s.arcs[s.node[m.head].prev].edge))
		s.arena = append(s.arena, s.memoTail[m.tail:m.tail+m.ntail]...)
		return true
	}
	m := spurMemo{hash: h, key: int32(key), nkey: int32(len(s.memoKey) - key), head: -1, tail: int32(len(s.memoTail))}
	found := s.settle(dst, stats)
	if found {
		off := len(s.arena) + len(rootEdges)
		s.arena = s.AppendPath(append(s.arena, rootEdges...), spurNode, dst)
		m.head = int32(s.g.edges[s.arena[off]].To)
		s.memoTail = append(s.memoTail, s.arena[off+1:]...)
		m.ntail = int32(len(s.memoTail)) - m.tail
	}
	s.memo = append(s.memo, m)
	return found
}

// spurMemo is one spur search of the current KShortestPaths call: its
// key is memoKey[key:key+nkey] and hashes to hash; head is the first
// node after the spur node on the path it found (-1 if dst was not
// reached), and memoTail[tail:tail+ntail] are that path's edges after
// the first.
type spurMemo struct {
	hash              uint64
	key, nkey         int32
	head, tail, ntail int32
}

// byWeight orders candidates by weight, then hops.
type byWeight []yenCandidate

func (c *byWeight) Len() int      { return len(*c) }
func (c *byWeight) Swap(a, b int) { (*c)[a], (*c)[b] = (*c)[b], (*c)[a] }
func (c *byWeight) Less(a, b int) bool {
	wa, wb := (*c)[a].weight, (*c)[b].weight
	if wa != wb { //nolint:nofloateq // comparator tie-break: tolerance would break strict weak ordering
		return wa < wb
	}
	return (*c)[a].n < (*c)[b].n
}

// waiting reports whether edges, whose hash is h, is already among
// the waiting candidates.
func (s *PathSolver) waiting(h uint64, edges []EdgeID) bool {
	for _, c := range s.cands {
		if c.hash == h && equalEdges(s.arena[c.off:c.off+c.n], edges) {
			return true
		}
	}
	return false
}

// weight is the total Weight of edges, summed in path order.
func (s *PathSolver) weight(edges []EdgeID) float64 {
	var w float64
	for _, id := range edges {
		w += s.g.edges[id].Weight
	}
	return w
}

// fnv1a is FNV-1a with one step per element rather than per byte: over
// edge IDs for the candidate dedupe, over key words for the spur memo.
func fnv1a[T EdgeID | uint64](xs []T) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range xs {
		h ^= uint64(x)
		h *= 1099511628211
	}
	return h
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
