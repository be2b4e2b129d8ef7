package te

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// KPath is a SWAN-style allocator: each demand is restricted to its
// kpathK minimum-weight paths (computed up front, as SWAN pre-installs
// tunnels), and volume is spread across demands with iterative
// max-min water-filling so no demand starves.
type KPath struct{}

// kpathK is the number of pre-computed paths per demand.
const kpathK = 4

// kpathStep is the water-filling step as a fraction of the largest
// demand.
const kpathStep = 0.01

// Name implements Algorithm.
func (KPath) Name() string { return fmt.Sprintf("k-path(k=%d)", kpathK) }

// kpathIncrement is the water-filling step: kpathStep of the largest
// demand, or 1 when every demand is empty.
func kpathIncrement(demands []Demand) float64 {
	maxVol := 0.0
	for _, d := range demands {
		if d.Volume > maxVol {
			maxVol = d.Volume
		}
	}
	if maxVol == 0 {
		return 1
	}
	return maxVol * kpathStep
}

// Allocate implements Algorithm: one allocation over a fresh WarmKPath.
// The caller owns the result.
func (KPath) Allocate(g *graph.Graph, demands []Demand) (*Allocation, error) {
	return new(WarmKPath).Allocate(g, demands)
}

// WarmKPath is the k-path allocator with warm-start state: its
// PathSolver (refreshed each round, its scratch kept), the per-demand
// states, the per-path amount slab, the remaining capacities and the
// result. It holds the only k-path loop:
// KPath.Allocate runs it once on a fresh WarmKPath, so both produce
// exactly the same flows and solver stats. Each round it resets the
// solver's path slabs, since it owns every path it asked for; as with
// WarmGreedy, the returned *Allocation is reused by the next Allocate
// call, so callers must copy anything they keep.
//
// Not safe for concurrent use.
type WarmKPath struct {
	g         *graph.Graph
	solver    *graph.PathSolver
	states    []kpState
	amounts   []float64
	remaining []float64
	alloc     Allocation
}

// Name implements Algorithm, reporting the same name as KPath so
// metrics and manifests are unchanged by warming.
func (w *WarmKPath) Name() string { return KPath{}.Name() }

// Allocate implements Algorithm. Round-robin water-filling: in each
// round every unsatisfied demand tries to push one increment along its
// cheapest (by remaining-capacity feasibility, then path weight)
// pre-computed path. Rounds repeat until no demand can make progress.
func (w *WarmKPath) Allocate(g *graph.Graph, demands []Demand) (*Allocation, error) {
	if err := validateAll(g, demands); err != nil {
		return nil, err
	}
	// One kernel for the whole call: it reads the positive-capacity arcs
	// once, then every demand's Yen search reuses its scratch and cuts
	// its paths from the solver's slabs.
	if w.g != g {
		w.g, w.solver = g, graph.NewPathSolver(g)
	} else {
		w.solver.Refresh()
		w.solver.ResetPaths()
	}
	inc := kpathIncrement(demands)
	nE := g.NumEdges()
	remaining := zeroed(w.remaining, nE)
	w.remaining = remaining
	for id := range remaining {
		remaining[id] = g.Edge(graph.EdgeID(id)).Capacity
	}

	var solves, nPaths int
	var pre graph.SolveStats // Yen precompute work (Dijkstra runs)
	states := zeroed(w.states, len(demands))
	w.states = states
	for i, d := range demands {
		if d.Volume <= 0 {
			continue
		}
		states[i].paths = w.solver.KShortestPaths(d.Src, d.Dst, kpathK, &pre)
		nPaths += len(states[i].paths)
		solves++
	}
	// Every path's amount lives in one slab.
	amounts := zeroed(w.amounts, nPaths)
	w.amounts = amounts
	for i := range states {
		n := len(states[i].paths)
		states[i].perPath, amounts = amounts[:n:n], amounts[n:]
	}

	// Water-fill in input order; an empty demand set runs no sweep.
	var phases, pushes, scans int
	if len(demands) > 0 {
		phases, pushes, scans = waterFill(demands, states, inc, remaining)
	}

	alloc := &w.alloc
	alloc.Results = zeroed(alloc.Results, len(demands))
	alloc.EdgeFlow = zeroed(alloc.EdgeFlow, nE)
	// Phases counts water-fill sweeps plus precompute Dijkstra runs;
	// Relaxations pools Yen's edge examinations with the water-fill
	// room scans — the allocator's two inner loops.
	alloc.Solver = SolverStats{Solves: solves, SolveStats: graph.SolveStats{
		Phases:        phases + pre.Phases,
		Augmentations: pushes,
		Pops:          pre.Pops,
		Relaxations:   pre.Relaxations + scans,
	}}
	for i, d := range demands {
		st := &states[i]
		alloc.Results[i].Demand = d
		alloc.Results[i].Shipped = st.shipped
		for pi, amt := range st.perPath {
			if amt <= graph.Eps {
				continue
			}
			for _, id := range st.paths[pi].Edges {
				alloc.EdgeFlow[id] += amt
			}
		}
	}
	finish(g, alloc)
	return alloc, nil
}

// kpState is the per-demand water-filling state. live is the index of
// its first tunnel not yet seen dead (room ≤ Eps); waterFill's remaining
// capacities only fall, so a dead tunnel never takes flow again.
type kpState struct {
	paths   []graph.Path
	shipped float64
	perPath []float64
	live    int
}

// waterFill round-robins increments across the demands, in input order,
// until none can make progress. It reports the number of round-robin
// sweeps (phases), increments applied (pushes), and path-edge room
// scans (scans — the water-filling analogue of arc relaxations) for
// solver stats. A demand's scan starts at its cursor: the tunnels
// before it are dead, so the tunnel picked and every push are those of
// a scan from the first.
func waterFill(demands []Demand, states []kpState, inc float64, remaining []float64) (phases, pushes, scans int) {
	for progressed := true; progressed; {
		progressed = false
		phases++
		for i, d := range demands {
			st := &states[i]
			want := d.Volume - st.shipped
			if want <= graph.Eps || st.live == len(st.paths) {
				continue
			}
			step := math.Min(inc, want)
			// Pick the first (lowest-weight) path with room: every one
			// before it is dead, so the cursor moves past it.
			for ; st.live < len(st.paths); st.live++ {
				p := st.paths[st.live]
				room := math.Inf(1)
				scans += len(p.Edges)
				for _, id := range p.Edges {
					if remaining[id] < room {
						room = remaining[id]
					}
				}
				if room <= graph.Eps {
					continue
				}
				amt := math.Min(step, room)
				for _, id := range p.Edges {
					remaining[id] -= amt
					if remaining[id] < 0 {
						remaining[id] = 0
					}
				}
				st.perPath[st.live] += amt
				st.shipped += amt
				pushes++
				progressed = true
				break
			}
		}
	}
	return phases, pushes, scans
}
