package graph

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// This file is the reference oracle for PathSolver: the map/closure
// Dijkstra and Yen that shipped before the kernel, kept verbatim (names
// prefixed ref) so the differential tests compare against the exact
// behaviour — pop order, tie-breaking, dedup, sort — the kernel must
// reproduce bit for bit. It allocates per search, never stops early, and
// must not be "optimized"; only its work counts are read where the
// kernel stops, so they can be compared exactly.

// refItem is a priority-queue entry.
type refItem struct {
	node NodeID
	dist float64
}

type refPQ []refItem

func (q refPQ) Len() int            { return len(q) }
func (q refPQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q refPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x interface{}) { *q = append(*q, x.(refItem)) }
func (q *refPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// reconstruct builds a Path from the predecessor-edge array.
func (g *Graph) reconstruct(src, dst NodeID, prevEdge []EdgeID) Path {
	var rev []EdgeID
	at := dst
	for at != src {
		id := prevEdge[at]
		if id == NoEdge {
			return Path{}
		}
		rev = append(rev, id)
		at = g.edges[id].From
	}
	p := Path{Nodes: []NodeID{src}}
	for i := len(rev) - 1; i >= 0; i-- {
		p.Edges = append(p.Edges, rev[i])
		p.Nodes = append(p.Nodes, g.edges[rev[i]].To)
	}
	return p
}

// refShortestPath is the pre-kernel shortest-path search: a full
// (never early-exiting) Dijkstra over positive-capacity edges.
func (g *Graph) refShortestPath(src, dst NodeID, stats *SolveStats) (Path, float64, bool) {
	dist, prevEdge := g.refDijkstraAll(src, dst, func(e Edge) (float64, bool) {
		if e.Capacity <= Eps {
			return 0, false
		}
		return e.Weight, true
	}, stats)
	if math.IsInf(dist[dst], 1) {
		return Path{}, 0, false
	}
	return g.reconstruct(src, dst, prevEdge), dist[dst], true
}

// refDijkstraAll runs Dijkstra from src using lengthOf to derive each
// edge's length (or skip it). It panics on a negative length. A non-nil
// stats receives Pops/Relaxations work counts as they stood at the pop
// that settled dst — up to that pop the pop order is the early-exit
// kernel's — or, when dst is NoNode or never settled, at the end of the
// full run.
func (g *Graph) refDijkstraAll(src, dst NodeID, lengthOf func(Edge) (float64, bool), stats *SolveStats) ([]float64, []EdgeID) {
	n := g.NumNodes()
	dist := make([]float64, n)
	prevEdge := make([]EdgeID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevEdge[i] = NoEdge
	}
	dist[src] = 0
	var pops, relaxations int
	counted := false
	pq := &refPQ{{node: src, dist: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(refItem)
		u := it.node
		pops++
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst && stats != nil {
			stats.Pops += pops
			stats.Relaxations += relaxations
			counted = true
		}
		for _, id := range g.Out(u) {
			e := g.edges[id]
			l, ok := lengthOf(e)
			if !ok {
				continue
			}
			relaxations++
			if l < -Eps {
				panic(fmt.Sprintf("graph: negative edge length %v on edge %d", l, int(id)))
			}
			if l < 0 {
				l = 0
			}
			if nd := dist[u] + l; nd+Eps < dist[e.To] {
				dist[e.To] = nd
				prevEdge[e.To] = id
				heap.Push(pq, refItem{node: e.To, dist: nd})
			}
		}
	}
	if stats != nil && !counted {
		stats.Pops += pops
		stats.Relaxations += relaxations
	}
	return dist, prevEdge
}

// refKShortestPaths is the pre-kernel KShortestPathsStats (Yen with
// per-spur ban maps and the weight-recomputing sort comparator).
func (g *Graph) refKShortestPaths(src, dst NodeID, k int, stats *SolveStats) []Path {
	if k <= 0 {
		return nil
	}
	if stats != nil {
		stats.Phases++
	}
	first, _, ok := g.refShortestPath(src, dst, stats)
	if !ok {
		return nil
	}
	result := []Path{first}
	var candidates []Path

	for len(result) < k {
		prev := result[len(result)-1]
		// For each node in the previous path except the last, branch.
		for i := 0; i < len(prev.Nodes)-1; i++ {
			spurNode := prev.Nodes[i]
			rootEdges := prev.Edges[:i]

			banned := make(map[EdgeID]bool)
			// Ban edges that would recreate an already-found path with
			// the same root.
			for _, p := range result {
				if len(p.Edges) > i && equalEdges(p.Edges[:i], rootEdges) {
					banned[p.Edges[i]] = true
				}
			}
			// Ban root nodes (loopless requirement).
			bannedNodes := make(map[NodeID]bool)
			for _, nd := range prev.Nodes[:i] {
				bannedNodes[nd] = true
			}

			if stats != nil {
				stats.Phases++
			}
			spurDist, spurPrev := g.refDijkstraAll(spurNode, dst, func(e Edge) (float64, bool) {
				if e.Capacity <= Eps || banned[e.ID] || bannedNodes[e.From] || bannedNodes[e.To] {
					return 0, false
				}
				return e.Weight, true
			}, stats)
			if math.IsInf(spurDist[dst], 1) {
				continue
			}
			spur := g.reconstruct(spurNode, dst, spurPrev)
			total := Path{
				Edges: append(append([]EdgeID(nil), rootEdges...), spur.Edges...),
				Nodes: append(append([]NodeID(nil), prev.Nodes[:i]...), spur.Nodes...),
			}
			if !refContainsPath(candidates, total) && !refContainsPath(result, total) {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			wa, wb := weightOn(g, candidates[a]), weightOn(g, candidates[b])
			if wa != wb { //nolint:nofloateq // comparator tie-break: tolerance would break strict weak ordering
				return wa < wb
			}
			return len(candidates[a].Edges) < len(candidates[b].Edges)
		})
		result = append(result, candidates[0])
		candidates = candidates[1:]
	}
	return result
}

func refContainsPath(ps []Path, p Path) bool {
	for _, q := range ps {
		if equalEdges(q.Edges, p.Edges) {
			return true
		}
	}
	return false
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
