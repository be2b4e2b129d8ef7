package graph

// RefKShortestPaths is the reference Yen of paths_oracle_test.go, for
// the external tests that build their graphs with packages importing
// graph.
func RefKShortestPaths(g *Graph, src, dst NodeID, k int, stats *SolveStats) []Path {
	return g.refKShortestPaths(src, dst, k, stats)
}

// YenCounts returns what the last KShortestPaths call on s left out of
// its stats' sums: how many spur searches the twin shortcut answered
// without a search, and the labels' share of the counts.
func YenCounts(s *PathSolver) (shortcuts int, labels SolveStats) {
	return s.last.shortcuts, s.last.labels
}
