package te

import (
	"slices"

	"repro/internal/graph"
)

// NewWarm returns an allocator equivalent to a but with reusable
// per-round state where the algorithm supports it. For Greedy it
// returns a fresh *WarmGreedy (the same loop, so the same allocations,
// at near-zero steady-state allocs); other algorithms pass through
// unchanged.
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
// min-cost-flow kernel bound to the input graph plus the result and memo
// buffers. Repeated Allocate calls over a structurally-stable graph
// (capacities and costs may change freely) do not allocate. It holds the
// only greedy loop: Greedy.Allocate runs it once on a fresh WarmGreedy,
// so both produce exactly the same flows, throughput, cost, and solver
// stats.
//
// One Allocate is one session of the kernel: Load reads the graph once,
// each demand is a Route on the residual its predecessors left and a
// Commit, so the capacity left lives in the kernel.
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
	g      *graph.Graph
	solver *graph.MCFSolver
	order  []int
	alloc  Allocation

	// Unreachable-sink memo, valid within one Allocate: memo[src] is the
	// offset in reach of the bitset of nodes the last exhausted search
	// from src reached, or -1. Committed capacity only shrinks, so a
	// later demand from src whose sink is outside that set cannot ship
	// anything and is not routed.
	memo  []int
	reach []uint64
}

// Name implements Algorithm, reporting the same name as Greedy so
// metrics and manifests are unchanged by warming.
func (w *WarmGreedy) Name() string { return Greedy{}.Name() }

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
	if w.g != g {
		w.g, w.solver = g, graph.NewMCFSolver(g)
	}
	if err := w.solver.Load(nil); err != nil {
		return nil, err
	}
	nNodes, nEdges := g.NumNodes(), g.NumEdges()

	a := &w.alloc
	a.Results = slices.Grow(a.Results[:0], len(demands))[:len(demands)]
	clear(a.Results)
	a.EdgeFlow = slices.Grow(a.EdgeFlow[:0], nEdges)[:nEdges]
	clear(a.EdgeFlow)
	a.Solver = SolverStats{}

	w.memo = slices.Grow(w.memo[:0], nNodes)[:nNodes]
	for i := range w.memo {
		w.memo[i] = -1
	}
	w.reach = w.reach[:0]

	var flow []float64 // one demand's flow, for decomposition
	if paths {
		flow = make([]float64, nEdges)
	}

	w.order = byPriorityInto(w.order[:0], demands)
	for _, i := range w.order {
		d := demands[i]
		a.Results[i].Demand = d
		if d.Volume <= 0 {
			continue
		}
		if at := w.memo[d.Src]; at >= 0 && w.reach[at+int(d.Dst)>>6]&(1<<(uint(d.Dst)&63)) == 0 {
			a.Solver.Solves++ // solved by the memo: no search
			continue
		}
		res, err := w.solver.Route(d.Src, d.Dst, d.Volume)
		if err != nil {
			return nil, err
		}
		a.Solver.addGraph(res.Stats)
		if reached := w.solver.Exhausted(); reached != nil {
			w.remember(d.Src, reached)
		}
		if res.Value <= graph.Eps {
			continue
		}
		if paths {
			touched := w.solver.Flow(flow)
			if a.Results[i].Paths, err = g.DecomposeFlow(d.Src, d.Dst, flow); err != nil {
				return nil, err
			}
			for _, e := range touched {
				flow[e] = 0
			}
		}
		w.solver.Commit(a.EdgeFlow)
		a.Results[i].Shipped = res.Value
	}
	finish(g, a)
	return a, nil
}

// remember records reached — the nodes an exhausted search from src
// reached — as src's memo, in its slot of the slab if it has one.
func (w *WarmGreedy) remember(src graph.NodeID, reached []graph.NodeID) {
	words := (len(w.memo) + 63) / 64
	at := w.memo[src]
	if at < 0 {
		at = len(w.reach)
		w.memo[src] = at
		w.reach = slices.Grow(w.reach, words)[:at+words]
	}
	set := w.reach[at : at+words]
	clear(set)
	for _, v := range reached {
		set[v>>6] |= 1 << (uint(v) & 63)
	}
}
