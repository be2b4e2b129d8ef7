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
// anything up in a map. Graph.KShortestPathsStats builds a fresh
// solver per call, so there is one implementation and it returns the
// same paths either way.
//
// Seven things keep Yen cheap:
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
//   - When labels from src and to dst certify that the first path is
//     the only shortest one up to twin choice (see certify), a spur
//     search of a path on the first path's nodes, at a hop whose twin
//     group keeps an un-banned member, runs not at all: its answer is
//     that member and the first path's tail, exactly what the search
//     would return. On an augmented graph that is most of them.
//   - A candidate on the first path's nodes — every shortcut answer,
//     and most spur answers on an augmented graph — is held as the few
//     hops where it differs from the first path (see pathRef), weighed
//     from the first path's weight when those hops keep its Weights,
//     and deduplicated against one hash set of the call's paths waiting
//     or found; it becomes a Path only if Yen picks it, at most k−1 a
//     call.
//
// What is deliberately NOT done: anything that changes the pop order or
// the strict `nd+Eps < dist` relaxation (A*, bidirectional search),
// the spur searches' answers (Lawler's pruning drops some of them) or
// the candidates' order (a stable sort), and any reuse across calls.
// IGP weights are small integers and every fake edge parallels a real
// one at equal weight, so ties are the common case and the tie-break —
// heap layout, out-edge order and the unstable candidate sort —
// decides which of the equal-weight paths a demand gets. The twin
// shortcut changes how many searches run, never an answer.
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

	// arena holds Yen's candidates (and ShortestPath's one path) for
	// the current call; cands index into it (see pathRef). lcp holds,
	// for each path found so far, how many leading edges it shares with
	// the latest.
	arena []EdgeID
	cands byWeight
	lcp   []int32

	// seen is the current call's set of paths waiting or found and of
	// its spur searches' memo keys, open addressing over a power-of-two
	// table: a slot holds one when its gen is seenGen. seenLen counts
	// them and seenShift turns a hash into a slot (see home).
	seen      []yenSlot
	seenGen   uint32
	seenLen   int
	seenShift uint

	// memo holds the current KShortestPaths call's spur searches, keyed
	// by words in memoKey (and found through seen), with their paths'
	// tails in memoTail.
	memo     []spurMemo
	memoKey  []uint64
	memoTail []EdgeID

	// The slabs returned paths and KShortestPaths' path lists are cut
	// from. They only grow until ResetPaths: a returned Path's Edges and
	// Nodes alias them, as does a returned list (all capped, so a
	// caller's append copies), and a full slab is replaced, never
	// reused. cut counts the elements taken from each since the last
	// ResetPaths, full slabs' included.
	edgeSlab []EdgeID
	nodeSlab []NodeID
	pathSlab []Path
	cut      struct{ edges, nodes, paths int }

	// The twin shortcut's scratch (see certify): f holds the current
	// call's source labels by node, +Inf past the search horizon. The
	// reverse of the group table — node v's incoming groups are
	// rgroups[rstart[v]:rstart[v+1]], each with its tail in to — is
	// built by the first call since the last Refresh that needs labels
	// (rstale says it has not run yet). revOK is false when an open arc
	// is lighter than -Eps: then no labels are grown, so they never
	// relax an arc the searches would panic on.
	f       []float64
	rstale  bool
	revOK   bool
	rstart  []int32
	rgroups []pathGroup

	// p1 holds the group of each edge of the current call's first path.
	p1 []int32

	// last holds what the last KShortestPaths call's stats do not show
	// apart: how many spur searches the twin shortcut answered, and the
	// labels' share of its counts.
	last struct {
		shortcuts int
		labels    SolveStats
	}
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
		s.f = make([]float64, n)
	}
	s.rstale = true
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
	return s.source(src, dst, stats) || s.settle(dst, math.Inf(1), stats)
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

// settle pops the heap source left until dst is settled, or until the
// next pop would exceed horizon, and reports whether dst was reached.
func (s *PathSolver) settle(dst NodeID, horizon float64, stats *SolveStats) bool {
	ep, nodes := s.epoch, s.node
	var pops, relaxations int
	found := false
	for len(s.pq) > 0 && s.pq[0].dist <= horizon {
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

// ResetPaths lets the solver cut new paths and path lists from the
// storage of every one it has returned: those must not be read
// afterwards. An owner that drops all of them before its next round of
// calls (te.WarmKPath) keeps one slab of each kind, sized to what the
// last round took, instead of growing fresh ones.
func (s *PathSolver) ResetPaths() {
	s.edgeSlab = refit(s.edgeSlab, s.cut.edges)
	s.nodeSlab = refit(s.nodeSlab, s.cut.nodes)
	s.pathSlab = refit(s.pathSlab, s.cut.paths)
	s.cut.edges, s.cut.nodes, s.cut.paths = 0, 0, 0
}

// refit returns slab emptied for reuse, replaced by one an eighth
// larger than used if it cannot hold used elements: calls like those
// before the reset, give or take a few paths' worth, then cut from it
// without allocating.
func refit[T any](slab []T, used int) []T {
	if cap(slab) < used {
		return make([]T, 0, used+used/8)
	}
	return slab[:0]
}

// newPath returns the Path that starts at src and follows edges, with
// its Edges (nil when there are none, as a fresh append would leave
// them) cut from the solver's slabs, and its Nodes too unless they are
// like's: then it shares like. (Yen passes its first path: on a
// twin-heavy graph most of a call's paths are its twin swaps.)
func (s *PathSolver) newPath(src NodeID, edges []EdgeID, like []NodeID) Path {
	var p Path
	s.cut.edges += len(edges)
	if n := len(edges); n > 0 {
		if cap(s.edgeSlab)-len(s.edgeSlab) < n {
			s.edgeSlab = make([]EdgeID, 0, max(n, 2*cap(s.edgeSlab)))
		}
		lo := len(s.edgeSlab)
		s.edgeSlab = append(s.edgeSlab, edges...)
		p.Edges = s.edgeSlab[lo:len(s.edgeSlab):len(s.edgeSlab)]
	}
	if sameNodes(s.g, edges, like) {
		p.Nodes = like
		return p
	}
	s.cut.nodes += len(edges) + 1
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

// sameNodes reports whether the path along edges, which starts where
// nodes does, visits nodes.
func sameNodes(g *Graph, edges []EdgeID, nodes []NodeID) bool {
	if len(nodes) != len(edges)+1 {
		return false
	}
	for j, id := range edges {
		if g.edges[id].To != nodes[j+1] {
			return false
		}
	}
	return true
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
	return s.newPath(src, s.arena, nil), s.node[dst].dist, true
}

// yenCandidate is a path in Yen's candidate list, with its weight (for
// the sort) computed once when it is created.
type yenCandidate struct {
	weight float64
	pathRef
}

// pathRef locates a candidate of the current KShortestPaths call in
// the arena, in one of two forms. A candidate on the first path's node
// sequence is held as the nd hops where its edges differ from the
// first path's, n being the first path's hops: arena[off:off+2·nd]
// holds (hop, edge) pairs in hop order. On an augmented graph most
// candidates are twin swaps of the first path, a hop or two apart. Any
// other is held whole: its edges are arena[off:off+n], and nd is -1.
type pathRef struct {
	off, n, nd int32
}

// span returns c's words in the arena: its edges, or its diff's pairs.
func (s *PathSolver) span(c pathRef) []EdgeID {
	if c.nd < 0 {
		return s.arena[c.off : c.off+c.n]
	}
	return s.arena[c.off : c.off+2*c.nd]
}

// yenSlot is one slot of the seen table, in use in the current call
// when gen is seenGen: the key of spur search memo-1 when memo > 0,
// else a path waiting or found, ref. Either hashes to hash.
type yenSlot struct {
	hash uint64
	gen  uint32
	memo int32
	ref  pathRef
}

// KShortestPaths returns up to k loopless minimum-Weight paths from src
// to dst in ascending weight order (Yen's algorithm) over the edges
// open at the last Refresh. The list and its paths are cut from the
// solver's slabs, and a later path on the first path's nodes shares
// its Nodes: callers read paths, never write into them.
//
// A non-nil stats receives one Phase per Dijkstra run — the first
// search, every spur search that runs (repeated ones included) and the
// twin shortcut's reverse search — and the pooled Pops/Relaxations
// across them, the first search's run past dst included (see certify).
// Spur searches the shortcut answers run nothing and count nothing.
func (s *PathSolver) KShortestPaths(src, dst NodeID, k int, stats *SolveStats) []Path {
	s.last.shortcuts, s.last.labels = 0, SolveStats{}
	if k <= 0 {
		return nil
	}
	if stats != nil {
		stats.Phases++
	}
	first, w, ok := s.ShortestPath(src, dst, stats)
	if !ok {
		return nil
	}
	// The list lives in the path slab while it fits the room reserved
	// for it; a longer one moves out on its own append.
	room := min(k, 64)
	if cap(s.pathSlab)-len(s.pathSlab) < room {
		s.pathSlab = make([]Path, 0, max(room, 2*cap(s.pathSlab)))
	}
	s.cut.paths += room
	lo := len(s.pathSlab)
	result := append(s.pathSlab[lo:lo:lo+room], first)
	twins := k > 1 && s.certify(dst, first, w, stats)
	// A candidate stays in the arena until the call ends, won or lost;
	// cands lists the ones still waiting. The seen set holds them all
	// and the first path (an empty diff): a candidate leaves the waiting
	// list only by being found, so that is every path waiting or found.
	s.arena, s.cands = s.arena[:0], s.cands[:0]
	s.memo, s.memoKey, s.memoTail = s.memo[:0], s.memoKey[:0], s.memoTail[:0]
	hops := int32(len(first.Edges))
	w1 := s.weight(first.Edges)
	prevRef := pathRef{n: hops}
	s.newSeen()
	s.admit(fnv1a(s.span(prevRef)), prevRef, 0)

	for len(result) < k {
		prev := result[len(result)-1]
		// prev runs on the first path's nodes exactly when it was a diff.
		twin := twins && prevRef.nd >= 0
		// A found path's edge at i is banned from the spur at i when it
		// shares prev's first i edges.
		s.lcp = slices.Grow(s.lcp[:0], room)
		for _, p := range result {
			s.lcp = append(s.lcp, int32(commonPrefix(p.Edges, prev.Edges)))
		}
		// For each node in the previous path except the last, branch.
		for i := 0; i < len(prev.Nodes)-1; i++ {
			rootEdges := prev.Edges[:i]

			s.begin()
			// Ban edges that would recreate an already-found path with
			// the same root.
			for j, p := range result {
				if int(s.lcp[j]) >= i && len(p.Edges) > i {
					s.banEdge[p.Edges[i]] = s.epoch
				}
			}

			var c pathRef
			if a := s.openTwin(twin, i); a >= 0 {
				// The spur search's answer is certified: the first open
				// twin, then the first path's tail. It differs from the
				// first path where prev's root does, and perhaps at i.
				s.last.shortcuts++
				off := len(s.arena)
				pairs := s.span(prevRef)
				for j := 0; j < len(pairs) && int(pairs[j]) < i; j += 2 {
					s.arena = append(s.arena, pairs[j], pairs[j+1])
				}
				if e := EdgeID(s.arcs[a].edge); e != first.Edges[i] {
					s.arena = append(s.arena, EdgeID(i), e)
				}
				c = pathRef{off: int32(off), n: hops, nd: int32(len(s.arena)-off) / 2}
			} else {
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
				c = s.keep(off, first)
			}
			s.enqueue(c, first.Edges, w1)
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
		prevRef = s.cands[0].pathRef
		result = append(result, s.found(src, prevRef, first))
		s.cands = append(s.cands[:0], s.cands[1:]...)
	}
	if len(result) <= room {
		s.pathSlab = s.pathSlab[:lo+len(result)]
	}
	return result[:len(result):len(result)]
}

// keep files the spur search's answer, appended to the arena at off, as
// a candidate: replaced there by its diff when it runs on first's
// nodes, else left whole.
func (s *PathSolver) keep(off int, first Path) pathRef {
	n := len(s.arena) - off
	if !sameNodes(s.g, s.arena[off:], first.Nodes) {
		return pathRef{off: int32(off), n: int32(n), nd: -1}
	}
	for j, id := range s.arena[off : off+n] {
		if id != first.Edges[j] {
			s.arena = append(s.arena, EdgeID(j), id)
		}
	}
	s.arena = append(s.arena[:off], s.arena[off+n:]...)
	return pathRef{off: int32(off), n: int32(n), nd: int32(len(s.arena)-off) / 2}
}

// enqueue puts c on the waiting list, weighed, unless the seen set
// holds its path already: then it gives back c's words, the last taken
// from the arena. first is the first path's edges, w1 their weight.
func (s *PathSolver) enqueue(c pathRef, first []EdgeID, w1 float64) {
	if _, fresh := s.admit(fnv1a(s.span(c)), c, 0); !fresh {
		s.arena = s.arena[:c.off]
		return
	}
	var w float64
	if c.nd < 0 {
		w = s.weight(s.span(c))
	} else {
		w = s.diffWeight(first, w1, s.span(c))
	}
	s.cands = append(s.cands, yenCandidate{weight: w, pathRef: c})
}

// found returns the candidate c as a Path cut from the slabs.
func (s *PathSolver) found(src NodeID, c pathRef, first Path) Path {
	if c.nd < 0 {
		return s.newPath(src, s.arena[c.off:c.off+c.n], first.Nodes)
	}
	off := len(s.arena)
	s.arena = append(s.arena, first.Edges...)
	for pairs := s.span(c); len(pairs) > 0; pairs = pairs[2:] {
		s.arena[off+int(pairs[0])] = pairs[1]
	}
	p := s.newPath(src, s.arena[off:], first.Nodes)
	s.arena = s.arena[:off]
	return p
}

// diffWeight is the weight of the path that differs from first, of
// weight w1, at the (hop, edge) pairs: w1 itself when every differing
// edge has the Weight bits of first's edge at its hop (the path-order
// sum adds the same numbers), else the path-order sum.
func (s *PathSolver) diffWeight(first []EdgeID, w1 float64, pairs []EdgeID) float64 {
	for j := 0; j < len(pairs); j += 2 {
		if math.Float64bits(s.g.edges[pairs[j+1]].Weight) == math.Float64bits(s.g.edges[first[pairs[j]]].Weight) {
			continue
		}
		var w float64
		for hop, id := range first {
			if len(pairs) > 0 && int(pairs[0]) == hop {
				id, pairs = pairs[1], pairs[2:]
			}
			w += s.g.edges[id].Weight
		}
		return w
	}
	return w1
}

// newSeen empties the seen set for a new call.
func (s *PathSolver) newSeen() {
	s.seenLen = 0
	if s.seenGen++; s.seenGen == 0 {
		// Wrapped: slots from the first lap would read as current.
		clear(s.seen)
		s.seenGen = 1
	}
	if len(s.seen) == 0 {
		s.seen, s.seenShift = make([]yenSlot, 256), 64-8
	}
}

// admit adds an entry hashing to h to the current call's seen set —
// spur search memo-1's key when memo > 0, else the path c — and
// returns its slot and true, or the slot of an equal entry already in
// the set and false. The set is open-addressed, at most half full.
func (s *PathSolver) admit(h uint64, c pathRef, memo int32) (*yenSlot, bool) {
	if 2*(s.seenLen+1) > len(s.seen) {
		old := s.seen
		s.seen, s.seenShift = make([]yenSlot, 2*len(old)), s.seenShift-1
		for _, sl := range old {
			if sl.gen == s.seenGen {
				*s.slot(sl.hash) = sl
			}
		}
	}
	for i, mask := s.home(h), len(s.seen)-1; ; i = (i + 1) & mask {
		sl := &s.seen[i]
		if sl.gen != s.seenGen {
			*sl = yenSlot{hash: h, gen: s.seenGen, memo: memo, ref: c}
			s.seenLen++
			return sl, true
		}
		if sl.hash != h || (sl.memo > 0) != (memo > 0) {
			continue
		}
		if memo > 0 && s.sameKey(&s.memo[sl.memo-1], &s.memo[memo-1]) || memo == 0 && s.samePath(sl.ref, c) {
			return sl, false
		}
	}
}

// home is hash h's first slot: the top bits of h times the 64-bit golden
// ratio, so edge IDs that differ only in high bits spread too.
func (s *PathSolver) home(h uint64) int {
	return int((h * 0x9e3779b97f4a7c15) >> s.seenShift)
}

// slot returns the first free slot of the current call from h's home.
func (s *PathSolver) slot(h uint64) *yenSlot {
	for i, mask := s.home(h), len(s.seen)-1; ; i = (i + 1) & mask {
		if s.seen[i].gen != s.seenGen {
			return &s.seen[i]
		}
	}
}

// samePath reports whether a and b hold the same path: the two forms
// never do, as only a path on the first path's nodes is a diff.
func (s *PathSolver) samePath(a, b pathRef) bool {
	return a.nd == b.nd && a.n == b.n && slices.Equal(s.span(a), s.span(b))
}

// sameKey reports whether spur searches a and b have the same key.
func (s *PathSolver) sameKey(a, b *spurMemo) bool {
	return slices.Equal(s.memoKey[a.key:a.key+a.nkey], s.memoKey[b.key:b.key+b.nkey])
}

// certify reports whether first, the src→dst path at weight w that
// the last search found, is the only shortest path up to twin choice,
// so that openTwin may answer spur searches. It must run before any
// other search: it continues that one. It records the group of each of
// first's edges in p1, and grows labels only when one of those groups
// has a twin (else no shortcut can fire) and no open arc is lighter
// than -Eps.
//
// The certificate: every open group u→v at length l (its Weight,
// negative ones read as 0 as the searches do) that is not one of
// first's has f(u)+l+r(v) > w+tol, with f the first search's labels
// from src and r labels to dst. first's own m groups come within
// rounding of w (f along first is its prefix sums, r at most any
// path's suffix sum), so the test is that exactly m groups come within
// tol. The labels stop at a horizon of w+2·tol: the first search runs
// on past dst until its next pop would exceed it, and r comes from a
// Dijkstra from dst over the reversed groups (strict test, no Eps, so
// r is the least suffix sum over the arcs it keeps) that skips a tail
// u when r+l+f(u) would exceed it. Skipping loses nothing the test
// needs: for a group within tol of w, every node x on its head's
// shortest path to dst has f(x)+r(x) ≤ w+tol+n·Eps, under the horizon,
// so that path is kept and the head's r is exact.
//
// Why it certifies the shortcut: take a spur at i of a path with
// first's node sequence, so spur node v_i, banned root nodes
// v_0..v_{i-1} and some arcs out of v_i banned, and say first's group
// at i keeps an open member. Any v_i→v_j path that is not first's
// segment uses a group off first, so by the triangle inequality it is
// heavier than the segment by more than tol less the labels' slack:
// f overstates a distance by at most Eps a hop (the strict nd+Eps <
// dist test), plus float rounding. tol = 4n(Eps + w·2^-52) covers that
// slack and the spur search's own Eps chain along the segment, so no
// such path can set a predecessor on the segment before dst is
// settled. Along it, source relaxes v_i's open arcs in CSR order and
// the first open member of the group sets dist on the strict test,
// which its twins (same nd) then fail; settle relaxes group leaders
// only, and first's edges past v_0 are leaders (its search relaxed
// only leaders there). So the spur search returns the root, the first
// open member and first's edges after i: what openTwin's caller
// appends.
//
// The labels are charged to stats and to last.labels: the first
// search's pops and relaxations past dst, and one Phase with the work
// of the reverse search.
func (s *PathSolver) certify(dst NodeID, first Path, w float64, stats *SolveStats) bool {
	s.p1 = s.p1[:0]
	live := false
	for j, id := range first.Edges {
		gi := s.groupOf(first.Nodes[j], id)
		s.p1 = append(s.p1, gi)
		live = live || s.groups[gi].n > 1
	}
	if !live || !s.reverseIndex() {
		return false
	}
	n := len(s.node)
	tol := float64(4*n) * (Eps + w*0x1p-52)
	bound, horizon := w+tol, w+2*tol
	labels := SolveStats{Phases: 1}

	// f: the first search, on from dst's relaxation (which its stop at
	// dst skipped) to the horizon.
	ep, nodes := s.epoch, s.node
	labels.Relaxations += s.relax(int32(dst), w, s.groups[s.gstart[dst]:s.gstart[dst+1]])
	s.settle(NoNode, horizon, &labels)
	for v := range s.f {
		if nv := &nodes[v]; nv.done == ep {
			s.f[v] = nv.dist
		} else {
			s.f[v] = math.Inf(1)
		}
	}

	// r, counting near groups as each head is settled; more than m ends
	// the search.
	s.begin()
	ep = s.epoch
	nodes[dst].seen, nodes[dst].dist = ep, 0
	s.pq = append(s.pq[:0], distItem{node: int32(dst)})
	near, m := 0, len(first.Edges)
	for len(s.pq) > 0 && near <= m {
		v := s.pq.pop().node
		labels.Pops++
		nv := &nodes[v]
		if nv.done == ep {
			continue
		}
		nv.done = ep
		for _, gr := range s.rgroups[s.rstart[v]:s.rstart[v+1]] {
			labels.Relaxations += int(gr.n)
			nd := nv.dist + max(gr.w, 0)
			fu := s.f[gr.to]
			if fu+nd <= bound {
				near++
			}
			if fu+nd > horizon {
				continue
			}
			nu := &nodes[gr.to]
			if nu.seen != ep || nd < nu.dist {
				nu.seen, nu.dist = ep, nd
				s.pq.push(gr.to, nd)
			}
		}
	}

	s.last.labels = labels
	if stats != nil {
		stats.Phases += labels.Phases
		stats.Pops += labels.Pops
		stats.Relaxations += labels.Relaxations
	}
	return near == m
}

// groupOf returns the index of the group of open edge id, an arc of u.
func (s *PathSolver) groupOf(u NodeID, id EdgeID) int32 {
	e := &s.g.edges[id]
	bits := math.Float64bits(e.Weight)
	for gi := s.gstart[u]; ; gi++ {
		if gr := &s.groups[gi]; gr.to == int32(e.To) && math.Float64bits(gr.w) == bits {
			return gi
		}
	}
}

// openTwin returns, for a certified spur (twin: its path has the first
// path's node sequence and certify passed) at index i, the CSR index
// of the first member of the first path's group at i that the current
// epoch does not ban, or -1 when there is none or the spur is not
// certified.
func (s *PathSolver) openTwin(twin bool, i int) int32 {
	if !twin {
		return -1
	}
	gr := &s.groups[s.p1[i]]
	bits := math.Float64bits(gr.w)
	for a, left := gr.arc, gr.n; left > 0; a++ {
		arc := &s.arcs[a]
		if arc.to != gr.to || math.Float64bits(arc.w) != bits {
			continue
		}
		if s.banEdge[arc.edge] != s.epoch {
			return a
		}
		left--
	}
	return -1
}

// reverseIndex builds rstart/rgroups once per Refresh and reports
// whether labels may be grown (no open arc is lighter than -Eps). The
// groups into each head keep the order of their tails.
func (s *PathSolver) reverseIndex() bool {
	if !s.rstale {
		return s.revOK
	}
	s.rstale, s.revOK = false, true
	n := len(s.node)
	s.rstart = grow(s.rstart, n+2)
	clear(s.rstart)
	for _, gr := range s.groups {
		s.rstart[gr.to+2]++
		s.revOK = s.revOK && gr.w >= -Eps
	}
	for v := 2; v < n+2; v++ {
		s.rstart[v] += s.rstart[v-1]
	}
	s.rgroups = grow(s.rgroups, len(s.groups))
	for u := range n {
		for _, gr := range s.groups[s.gstart[u]:s.gstart[u+1]] {
			s.rgroups[s.rstart[gr.to+1]] = pathGroup{w: gr.w, to: int32(u), n: gr.n}
			s.rstart[gr.to+1]++
		}
	}
	return s.revOK
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
	s.memo = append(s.memo, spurMemo{key: int32(key), nkey: int32(len(s.memoKey) - key), head: -1, tail: int32(len(s.memoTail))})
	if sl, fresh := s.admit(fnv1a(s.memoKey[key:]), pathRef{}, int32(len(s.memo))); !fresh {
		s.memo, s.memoKey = s.memo[:len(s.memo)-1], s.memoKey[:key]
		m := &s.memo[sl.memo-1]
		if m.head < 0 {
			return false
		}
		s.arena = append(s.arena, rootEdges...)
		s.arena = append(s.arena, EdgeID(s.arcs[s.node[m.head].prev].edge))
		s.arena = append(s.arena, s.memoTail[m.tail:m.tail+m.ntail]...)
		return true
	}
	found := s.settle(dst, math.Inf(1), stats)
	if found {
		m := &s.memo[len(s.memo)-1]
		off := len(s.arena) + len(rootEdges)
		s.arena = s.AppendPath(append(s.arena, rootEdges...), spurNode, dst)
		m.head = int32(s.g.edges[s.arena[off]].To)
		s.memoTail = append(s.memoTail, s.arena[off+1:]...)
		m.ntail = int32(len(s.memoTail)) - m.tail
	}
	return found
}

// spurMemo is one spur search of the current KShortestPaths call: its
// key is memoKey[key:key+nkey]; head is the first node after the spur
// node on the path it found (-1 if dst was not reached), and
// memoTail[tail:tail+ntail] are that path's edges after the first.
type spurMemo struct {
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

// weight is the total Weight of edges, summed in path order.
func (s *PathSolver) weight(edges []EdgeID) float64 {
	var w float64
	for _, id := range edges {
		w += s.g.edges[id].Weight
	}
	return w
}

// fnv1a is FNV-1a with one step per element rather than per byte: over
// a candidate's arena words for the dedupe, over key words for the spur
// memo.
func fnv1a[T EdgeID | uint64](xs []T) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range xs {
		h ^= uint64(x)
		h *= 1099511628211
	}
	return h
}

// commonPrefix is how many leading edges a and b share.
func commonPrefix(a, b []EdgeID) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
