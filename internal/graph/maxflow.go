package graph

import (
	"fmt"
	"math"
)

// FlowResult is the outcome of a flow computation on a Graph.
type FlowResult struct {
	// Value is the total flow shipped from source to sink.
	Value float64
	// EdgeFlow[id] is the flow assigned to edge id (same indexing as
	// the graph's edges).
	EdgeFlow []float64
	// Cost is the total cost sum(flow_e * cost_e). Dinic leaves it 0
	// unless computed; min-cost solvers fill it.
	Cost float64
	// Stats counts the work the solver did. Callers that build
	// observability feeds aggregate these; the counters are plain local
	// integers so the hot loops pay nothing for them.
	Stats SolveStats
}

// SolveStats counts solver work for observability. For Dinic, Phases
// is the number of level graphs built (BFS rounds) and Augmentations
// the number of blocking-flow pushes; for successive shortest paths,
// Phases is the number of Dijkstra runs and Augmentations the number
// of augmenting paths applied.
//
// Pops and Relaxations break a phase's cost down to its unit of work:
// Pops counts priority-queue (or BFS queue) dequeues, Relaxations
// counts residual arcs examined with positive capacity — the inner-loop
// body of every shortest-path search. PathSolver's Weight searches
// count an arc whose twin (same tail, head and Weight) was examined
// first as examined with it: its leader decided it. Both are exact
// integers derived only from graph structure and solve order, never
// from timing, so they are byte-identical across runs and worker
// counts.
type SolveStats struct {
	Phases        int
	Augmentations int
	Pops          int
	Relaxations   int
}

// Add accumulates another solve's counts (for multi-solve callers
// like the per-demand TE allocators).
func (s *SolveStats) Add(o SolveStats) {
	s.Phases += o.Phases
	s.Augmentations += o.Augmentations
	s.Pops += o.Pops
	s.Relaxations += o.Relaxations
}

// FlowOn returns the flow assigned to edge id, or 0 when the id is out
// of range (e.g. an edge appended to the graph after the solve). The
// bounds check makes per-edge attribution safe against graph/result
// size mismatches without every caller re-validating lengths.
func (r *FlowResult) FlowOn(id EdgeID) float64 {
	if r == nil || id < 0 || int(id) >= len(r.EdgeFlow) {
		return 0
	}
	return r.EdgeFlow[id]
}

// costOn recomputes the cost of a flow assignment on g.
func (r *FlowResult) costOn(g *Graph) float64 {
	var c float64
	for id, f := range r.EdgeFlow {
		c += f * g.edges[id].Cost
	}
	return c
}

// residual is the arc-based residual network shared by the flow
// algorithms. Arc 2i is the forward copy of edge i; arc 2i+1 the
// backward copy.
type residual struct {
	n     int
	head  []NodeID  // arc -> target node
	cap   []float64 // arc -> remaining capacity
	cost  []float64 // arc -> cost per unit
	adj   [][]int   // node -> arc indices leaving it
	nEdge int       // original edge count
}

func newResidual(g *Graph) *residual {
	r := &residual{
		n:     g.NumNodes(),
		head:  make([]NodeID, 0, 2*g.NumEdges()),
		cap:   make([]float64, 0, 2*g.NumEdges()),
		cost:  make([]float64, 0, 2*g.NumEdges()),
		adj:   make([][]int, g.NumNodes()),
		nEdge: g.NumEdges(),
	}
	for _, e := range g.edges {
		// forward
		r.adj[e.From] = append(r.adj[e.From], len(r.head))
		r.head = append(r.head, e.To)
		r.cap = append(r.cap, e.Capacity)
		r.cost = append(r.cost, e.Cost)
		// backward
		r.adj[e.To] = append(r.adj[e.To], len(r.head))
		r.head = append(r.head, e.From)
		r.cap = append(r.cap, 0)
		r.cost = append(r.cost, -e.Cost)
	}
	return r
}

// flows extracts per-edge net flow from the residual state.
func (r *residual) flows(g *Graph) []float64 {
	out := make([]float64, r.nEdge)
	for i := 0; i < r.nEdge; i++ {
		// Flow on edge i equals the capacity accumulated on its
		// backward arc.
		out[i] = r.cap[2*i+1]
	}
	return out
}

// MaxFlow computes a maximum flow from src to dst using Dinic's
// algorithm, pushing at most limit units (use math.Inf(1) for the true
// max flow). It returns an error for invalid endpoints.
func (g *Graph) MaxFlow(src, dst NodeID, limit float64) (FlowResult, error) {
	if !g.HasNode(src) || !g.HasNode(dst) {
		return FlowResult{}, fmt.Errorf("graph: MaxFlow endpoints invalid: %d -> %d", int(src), int(dst))
	}
	if src == dst {
		return FlowResult{EdgeFlow: make([]float64, g.NumEdges())}, nil
	}
	if limit < 0 || math.IsNaN(limit) {
		return FlowResult{}, fmt.Errorf("graph: MaxFlow limit %v invalid", limit)
	}

	r := newResidual(g)
	level := make([]int, r.n)
	iter := make([]int, r.n)
	var total float64
	var stats SolveStats

	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		level[src] = 0
		queue := []NodeID{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			stats.Pops++
			for _, a := range r.adj[u] {
				if r.cap[a] <= Eps {
					continue
				}
				stats.Relaxations++
				if level[r.head[a]] < 0 {
					level[r.head[a]] = level[u] + 1
					queue = append(queue, r.head[a])
				}
			}
		}
		return level[dst] >= 0
	}

	var dfs func(u NodeID, f float64) float64
	dfs = func(u NodeID, f float64) float64 {
		if u == dst {
			return f
		}
		for ; iter[u] < len(r.adj[u]); iter[u]++ {
			a := r.adj[u][iter[u]]
			v := r.head[a]
			if r.cap[a] > Eps && level[v] == level[u]+1 {
				d := dfs(v, math.Min(f, r.cap[a]))
				if d > Eps {
					r.cap[a] -= d
					r.cap[a^1] += d
					return d
				}
			}
		}
		return 0
	}

	for total+Eps < limit && bfs() {
		stats.Phases++
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := dfs(src, limit-total)
			if f <= Eps {
				break
			}
			stats.Augmentations++
			total += f
			if total+Eps >= limit {
				break
			}
		}
	}

	res := FlowResult{Value: total, EdgeFlow: r.flows(g), Stats: stats}
	res.Cost = res.costOn(g)
	return res, nil
}

// MaxFlowValue returns just the max-flow value from src to dst.
func (g *Graph) MaxFlowValue(src, dst NodeID) (float64, error) {
	r, err := g.MaxFlow(src, dst, math.Inf(1))
	if err != nil {
		return 0, err
	}
	return r.Value, nil
}
