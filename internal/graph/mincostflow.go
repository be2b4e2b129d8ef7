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
// This is the cold entry point: it builds a fresh MCFSolver per call.
// Callers that solve repeatedly over one graph (the TE round hot path)
// should hold an MCFSolver and call Solve, which reuses the residual
// layout and scratch buffers and produces bit-identical results.
func (g *Graph) MinCostFlow(src, dst NodeID, limit float64) (FlowResult, error) {
	return NewMCFSolver(g).Solve(src, dst, limit, nil, nil)
}

// updatePotentials folds one Dijkstra phase's distances into the
// Johnson potentials: pot[i] += min(dist[i], dstDist).
//
// The cap at dstDist (the phase's distance to the sink) is the
// standard successive-shortest-path rule. Leaving a phase-unreachable
// node's potential untouched while its neighbours advance breaks the
// reduced-cost invariant the Dijkstra scan checks: if a later residual
// arc makes the node reachable again, the first arc scanned out of it
// sees rc = cost + pot[stale] - pot[advanced] < 0 and MinCostFlow
// reports a spurious "negative reduced cost" error. Capping at dstDist
// keeps every arc between ever-reachable nodes at rc >= 0 regardless
// of which nodes a given phase visits (arcs whose reduced cost the
// next phase consults all lie at distance <= dstDist, so the cap never
// under-advances a node that matters).
func updatePotentials(pot, dist []float64, dstDist float64) {
	for i := range pot {
		if d := dist[i]; d < dstDist { // Inf compares false
			pot[i] += d
		} else {
			pot[i] += dstDist
		}
	}
}

// MinCostMaxFlow returns the minimum-cost maximum flow from src to dst.
func (g *Graph) MinCostMaxFlow(src, dst NodeID) (FlowResult, error) {
	return g.MinCostFlow(src, dst, math.Inf(1))
}
