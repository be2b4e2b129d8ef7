package graph

import "math"

// MinCostFlow computes a minimum-cost flow of up to limit units from
// src to dst using successive shortest augmenting paths with Johnson
// potentials. With limit = +Inf it returns the min-cost *maximum* flow —
// the computation Theorem 1 maps the augmented topology onto.
//
// Negative edge costs are allowed as long as the graph has no
// negative-cost cycle of positive capacity (an error is returned if one
// is reachable from src).
//
// This is the one-shot entry point: it builds a fresh MCFSolver per call
// and runs its Solve. Callers that route many demands over one graph
// (the TE round hot path) hold an MCFSolver and drive its session —
// Load once, Route and Commit per demand — which is the same loop.
func (g *Graph) MinCostFlow(src, dst NodeID, limit float64) (FlowResult, error) {
	return NewMCFSolver(g).Solve(src, dst, limit, nil, nil)
}

// MinCostMaxFlow returns the minimum-cost maximum flow from src to dst.
func (g *Graph) MinCostMaxFlow(src, dst NodeID) (FlowResult, error) {
	return g.MinCostFlow(src, dst, math.Inf(1))
}
