package graph

import (
	"fmt"
	"math"
)

// PathFlow is one path of a flow decomposition with the amount it
// carries. TE controllers need path-level output to program tunnels;
// the core package's translation step (§4.1 step 3b) consumes these.
type PathFlow struct {
	Path   Path
	Amount float64
}

// DecomposeFlow performs a standard flow decomposition of edgeFlow on g
// from src to dst into src→dst paths with per-path amounts (cycles are
// dropped). The input slice is not modified. It runs on a one-shot
// Decomposer; callers that decompose many flows (te.MaxConcurrent: one
// per demand) should hold a Decomposer instead.
func (g *Graph) DecomposeFlow(src, dst NodeID, edgeFlow []float64) ([]PathFlow, error) {
	return new(Decomposer).Decompose(g, src, dst, edgeFlow)
}

// Decomposer is the reusable flow-decomposition kernel, in the mould of
// MCFSolver and PathSolver: it keeps the remaining-flow copy, the BFS
// queue and the epoch-stamped visited/predecessor arrays between calls,
// so decomposing one flow per demand allocates only the paths it
// returns. The zero value is ready to use and is not bound to a graph:
// the buffers grow to the largest graph seen. Not safe for concurrent
// use.
type Decomposer struct {
	rem   []float64
	queue []NodeID
	prev  []EdgeID // edge that reached the node; valid when seen == epoch
	seen  []uint32
	epoch uint32
}

// Decompose is Graph.DecomposeFlow on the receiver's scratch: repeatedly
// find the BFS-first (fewest hops, g.Out order) src→dst path over edges
// with remaining flow > Eps, peel off its bottleneck amount, and stop
// when dst is no longer reachable. The returned paths do not alias the
// scratch.
func (d *Decomposer) Decompose(g *Graph, src, dst NodeID, edgeFlow []float64) ([]PathFlow, error) {
	if len(edgeFlow) != g.NumEdges() {
		return nil, fmt.Errorf("graph: edgeFlow has %d entries for %d edges", len(edgeFlow), g.NumEdges())
	}
	if n := g.NumNodes(); len(d.seen) < n {
		d.seen, d.prev, d.epoch = make([]uint32, n), make([]EdgeID, n), 0
	}
	d.rem = append(d.rem[:0], edgeFlow...)
	rem, seen, prev := d.rem, d.seen, d.prev
	var out []PathFlow
	for {
		d.epoch++
		if d.epoch == 0 { // wrapped: stamps of the first lap would read as current
			for i := range seen {
				seen[i] = 0
			}
			d.epoch = 1
		}
		ep := d.epoch
		seen[src] = ep
		queue := append(d.queue[:0], src)
		found := false
		for head := 0; head < len(queue) && !found; head++ {
			for _, id := range g.out[queue[head]] {
				if rem[id] <= Eps {
					continue
				}
				v := g.edges[id].To
				if seen[v] == ep {
					continue
				}
				seen[v] = ep
				prev[v] = id
				if v == dst {
					found = true
					break
				}
				queue = append(queue, v)
			}
		}
		d.queue = queue
		if !found {
			break
		}
		hops, amount := 0, math.Inf(1)
		for at := dst; at != src; at = g.edges[prev[at]].From {
			hops++
			if r := rem[prev[at]]; r < amount {
				amount = r
			}
		}
		if amount <= Eps {
			break
		}
		p := Path{Edges: make([]EdgeID, hops), Nodes: make([]NodeID, hops+1)}
		p.Nodes[0] = src
		for at, i := dst, hops; at != src; i-- {
			id := prev[at]
			p.Edges[i-1], p.Nodes[i] = id, at
			rem[id] -= amount
			at = g.edges[id].From
		}
		out = append(out, PathFlow{Path: p, Amount: amount})
	}
	return out, nil
}
