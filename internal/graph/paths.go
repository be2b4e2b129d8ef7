package graph

import "math"

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
