package graph

// RefKShortestPaths is the reference Yen of paths_oracle_test.go, for
// the external tests that build their graphs with packages importing
// graph.
func RefKShortestPaths(g *Graph, src, dst NodeID, k int, stats *SolveStats) []Path {
	return g.refKShortestPaths(src, dst, k, stats)
}
