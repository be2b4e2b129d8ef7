package graph

import "math"

// ShortestPathBFS returns a minimum-hop path from src to dst, or ok =
// false if dst is unreachable. Edges with zero capacity are skipped.
func (g *Graph) ShortestPathBFS(src, dst NodeID) (Path, bool) {
	if !g.HasNode(src) || !g.HasNode(dst) {
		return Path{}, false
	}
	if src == dst {
		return Path{Nodes: []NodeID{src}}, true
	}
	prevEdge := make([]EdgeID, g.NumNodes())
	for i := range prevEdge {
		prevEdge[i] = NoEdge
	}
	visited := make([]bool, g.NumNodes())
	visited[src] = true
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, id := range g.Out(u) {
			e := g.edges[id]
			if e.Capacity <= Eps || visited[e.To] {
				continue
			}
			visited[e.To] = true
			prevEdge[e.To] = id
			if e.To == dst {
				return g.reconstruct(src, dst, prevEdge), true
			}
			queue = append(queue, e.To)
		}
	}
	return Path{}, false
}

// ShortestPathDijkstra returns a minimum-Weight path from src to dst,
// skipping zero-capacity edges. All edge weights must be non-negative.
func (g *Graph) ShortestPathDijkstra(src, dst NodeID) (Path, float64, bool) {
	return g.ShortestPathDijkstraStats(src, dst, nil)
}

// ShortestPathDijkstraStats is ShortestPathDijkstra with work
// accounting: when stats is non-nil, every queue pop up to the one that
// settles dst and every positive-capacity edge examined is counted into
// it (Pops and Relaxations; the caller owns Phases). It runs on a
// one-shot PathSolver; callers with many searches over one graph should
// hold a PathSolver instead.
func (g *Graph) ShortestPathDijkstraStats(src, dst NodeID, stats *SolveStats) (Path, float64, bool) {
	return NewPathSolver(g).ShortestPath(src, dst, stats)
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

// BellmanFord computes single-source shortest distances by Cost
// (allowing negative costs) over edges with positive capacity. It
// returns the distance array and reports whether a negative cycle
// reachable from src exists.
func (g *Graph) BellmanFord(src NodeID) (dist []float64, negCycle bool) {
	n := g.NumNodes()
	dist = make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for _, e := range g.edges {
			if e.Capacity <= Eps || math.IsInf(dist[e.From], 1) {
				continue
			}
			if nd := dist[e.From] + e.Cost; nd+Eps < dist[e.To] {
				dist[e.To] = nd
				changed = true
				if iter == n-1 {
					return dist, true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist, false
}

// KShortestPaths returns up to k loopless minimum-Weight paths from src
// to dst in ascending weight order (Yen's algorithm). Zero-capacity
// edges are skipped. SWAN-style TE pre-computes k paths per demand pair
// with exactly this.
func (g *Graph) KShortestPaths(src, dst NodeID, k int) []Path {
	return g.KShortestPathsStats(src, dst, k, nil)
}

// KShortestPathsStats is KShortestPaths with work accounting: a non-nil
// stats receives one Phase per Dijkstra run (initial plus every spur
// search) and the pooled Pops/Relaxations across them. It runs on a
// one-shot PathSolver, exactly as MinCostFlow runs on a one-shot
// MCFSolver.
func (g *Graph) KShortestPathsStats(src, dst NodeID, k int, stats *SolveStats) []Path {
	return NewPathSolver(g).KShortestPaths(src, dst, k, stats)
}

// Reachable returns the set of nodes reachable from src over
// positive-capacity edges.
func (g *Graph) Reachable(src NodeID) map[NodeID]bool {
	seen := map[NodeID]bool{src: true}
	stack := []NodeID{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range g.Out(u) {
			e := g.edges[id]
			if e.Capacity <= Eps || seen[e.To] {
				continue
			}
			seen[e.To] = true
			stack = append(stack, e.To)
		}
	}
	return seen
}
