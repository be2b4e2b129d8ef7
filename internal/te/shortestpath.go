package te

import (
	"repro/internal/graph"
)

// ShortestPath routes each demand entirely along its minimum-weight
// path over *remaining* capacity, shipping as much of the volume as the
// path's bottleneck allows. It models plain IGP routing (OSPF with
// static metrics): one path per demand, no spreading, no cost
// awareness. It is the paper's "today" baseline.
type ShortestPath struct{}

// Name implements Algorithm.
func (ShortestPath) Name() string { return "shortest-path" }

// Allocate implements Algorithm.
func (ShortestPath) Allocate(g *graph.Graph, demands []Demand) (*Allocation, error) {
	if err := validateAll(g, demands); err != nil {
		return nil, err
	}
	work := g.Clone() // track remaining capacity without touching g
	solver := graph.NewPathSolver(work)
	alloc := &Allocation{
		Results:  make([]DemandResult, len(demands)),
		EdgeFlow: make([]float64, g.NumEdges()),
	}
	for _, i := range byPriority(demands) {
		d := demands[i]
		alloc.Results[i].Demand = d
		if d.Volume <= 0 {
			continue
		}
		var st graph.SolveStats
		p, _, ok := solver.ShortestPath(d.Src, d.Dst, &st)
		alloc.Solver.Solves++
		alloc.Solver.Phases++
		alloc.Solver.Pops += st.Pops
		alloc.Solver.Relaxations += st.Relaxations
		if !ok {
			continue
		}
		bottleneck := d.Volume
		for _, id := range p.Edges {
			if c := work.Edge(id).Capacity; c < bottleneck {
				bottleneck = c
			}
		}
		if bottleneck <= graph.Eps {
			continue
		}
		alloc.Solver.Augmentations++
		saturated := false
		for _, id := range p.Edges {
			c := work.Edge(id).Capacity - bottleneck
			if c < 0 { // float round-off
				c = 0
			}
			work.SetCapacity(id, c)
			saturated = saturated || c <= graph.Eps
			alloc.EdgeFlow[id] += bottleneck
		}
		if saturated {
			// The kernel routes over the edges open at its last Refresh;
			// later demands must not see the ones this demand filled.
			solver.Refresh()
		}
		alloc.Results[i].Shipped = bottleneck
		alloc.Results[i].Paths = []graph.PathFlow{{Path: p, Amount: bottleneck}}
	}
	finish(g, alloc)
	return alloc, nil
}

// Greedy allocates demands sequentially, giving each a min-cost flow
// over the capacity left by its predecessors. On an augmented topology
// its cost-awareness makes it activate fake links only when cheaper
// alternatives are exhausted — the single-commodity Theorem 1 behaviour
// extended to many demands.
type Greedy struct{}

// Name implements Algorithm.
func (Greedy) Name() string { return "greedy-mcf" }

// Allocate implements Algorithm: one allocation over a fresh WarmGreedy,
// with each demand's flow decomposed into Paths. The caller owns the
// result.
func (Greedy) Allocate(g *graph.Graph, demands []Demand) (*Allocation, error) {
	return new(WarmGreedy).allocate(g, demands, true)
}
