package te

import (
	"repro/internal/graph"
)

// NewWarm returns an allocator equivalent to a but with reusable
// per-round state where the algorithm supports it. For Greedy it
// returns a fresh *WarmGreedy (bit-identical allocations, near-zero
// steady-state allocs); other algorithms pass through unchanged.
//
// Always call NewWarm per concurrent run: warm allocators carry mutable
// state and are not safe to share.
func NewWarm(a Algorithm) Algorithm {
	switch a.(type) {
	case Greedy, *WarmGreedy:
		return &WarmGreedy{}
	}
	return a
}

// WarmGreedy is the greedy allocator with warm-start state: a reusable
// min-cost-flow solver bound to the input graph plus scratch buffers
// for residual capacities, flows, and results. Repeated Allocate calls
// over a structurally-stable graph (capacities and costs may change
// freely) do not allocate. It holds the only greedy loop: Greedy.Allocate
// runs it once on a fresh WarmGreedy, so both produce exactly the same
// flows, throughput, cost, and solver stats.
//
// Two deliberate differences from Greedy.Allocate:
//
//   - DemandResult.Paths is left empty (the WAN round loop never reads
//     paths; decomposition was ~half the cold allocator's allocations).
//     Callers that need paths should use Greedy or DecomposeFlow.
//   - The returned *Allocation is owned by the allocator and reused by
//     the next Allocate call; callers must copy anything they keep.
//
// Not safe for concurrent use.
type WarmGreedy struct {
	g       *graph.Graph
	nNodes  int
	nEdges  int
	solver  *graph.MCFSolver
	capLeft []float64
	flow    []float64
	order   []int
	alloc   Allocation
}

// Name implements Algorithm, reporting the same name as Greedy so
// metrics and manifests are unchanged by warming.
func (w *WarmGreedy) Name() string { return Greedy{}.Name() }

// bind (re)attaches the warm state to g, rebuilding buffers only when
// the graph identity or structure changed.
func (w *WarmGreedy) bind(g *graph.Graph) {
	if w.g == g && w.nNodes == g.NumNodes() && w.nEdges == g.NumEdges() && w.solver != nil {
		return
	}
	w.g = g
	w.nNodes = g.NumNodes()
	w.nEdges = g.NumEdges()
	w.solver = graph.NewMCFSolver(g)
	w.capLeft = make([]float64, w.nEdges)
	w.flow = make([]float64, w.nEdges)
}

// Allocate implements Algorithm. See the type comment for the contract.
func (w *WarmGreedy) Allocate(g *graph.Graph, demands []Demand) (*Allocation, error) {
	return w.allocate(g, demands, false)
}

// allocate gives each demand, in priority order, a min-cost flow over
// the capacity its predecessors left. With paths set it also decomposes
// each demand's flow into DemandResult.Paths.
func (w *WarmGreedy) allocate(g *graph.Graph, demands []Demand, paths bool) (*Allocation, error) {
	if err := validateAll(g, demands); err != nil {
		return nil, err
	}
	w.bind(g)
	for i := 0; i < w.nEdges; i++ {
		w.capLeft[i] = g.Edge(graph.EdgeID(i)).Capacity
	}

	a := &w.alloc
	if a.Results == nil || cap(a.Results) < len(demands) {
		a.Results = make([]DemandResult, len(demands))
	}
	a.Results = a.Results[:len(demands)]
	for i := range a.Results {
		a.Results[i] = DemandResult{}
	}
	if cap(a.EdgeFlow) < w.nEdges {
		a.EdgeFlow = make([]float64, w.nEdges)
	}
	a.EdgeFlow = a.EdgeFlow[:w.nEdges]
	for i := range a.EdgeFlow {
		a.EdgeFlow[i] = 0
	}
	a.Solver = SolverStats{}

	w.order = byPriorityInto(w.order[:0], demands)
	for _, i := range w.order {
		d := demands[i]
		a.Results[i].Demand = d
		if d.Volume <= 0 {
			continue
		}
		res, err := w.solver.Solve(d.Src, d.Dst, d.Volume, w.capLeft, w.flow)
		if err != nil {
			return nil, err
		}
		a.Solver.addGraph(res.Stats)
		if res.Value <= graph.Eps {
			continue
		}
		if paths {
			if a.Results[i].Paths, err = g.DecomposeFlow(d.Src, d.Dst, w.flow); err != nil {
				return nil, err
			}
		}
		for id, f := range w.flow {
			if f <= graph.Eps {
				continue
			}
			c := w.capLeft[id] - f
			if c < 0 { // float round-off
				c = 0
			}
			w.capLeft[id] = c
			a.EdgeFlow[id] += f
		}
		a.Results[i].Shipped = res.Value
	}
	finish(g, a)
	return a, nil
}
