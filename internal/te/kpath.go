package te

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// KPath is a SWAN-style allocator: each demand is restricted to its k
// minimum-weight paths (computed up front, as SWAN pre-installs
// tunnels), and volume is spread across demands with iterative
// max-min water-filling so no demand starves.
type KPath struct {
	// K is the number of pre-computed paths per demand (default 4).
	K int
	// Increment is the water-filling step size as a fraction of the
	// largest demand (default 0.01).
	Increment float64
}

// Name implements Algorithm.
func (k KPath) Name() string { return fmt.Sprintf("k-path(k=%d)", k.kOrDefault()) }

func (k KPath) kOrDefault() int {
	if k.K <= 0 {
		return 4
	}
	return k.K
}

func (k KPath) incOrDefault(demands []Demand) float64 {
	frac := k.Increment
	if frac <= 0 {
		frac = 0.01
	}
	maxVol := 0.0
	for _, d := range demands {
		if d.Volume > maxVol {
			maxVol = d.Volume
		}
	}
	if maxVol == 0 {
		return 1
	}
	return maxVol * frac
}

// Allocate implements Algorithm. Round-robin water-filling: in each
// round every unsatisfied demand tries to push one increment along its
// cheapest (by remaining-capacity feasibility, then path weight)
// pre-computed path. Rounds repeat until no demand can make progress.
func (k KPath) Allocate(g *graph.Graph, demands []Demand) (*Allocation, error) {
	if err := validateAll(g, demands); err != nil {
		return nil, err
	}
	kk := k.kOrDefault()
	inc := k.incOrDefault(demands)

	remaining := make([]float64, g.NumEdges())
	for id := range remaining {
		remaining[id] = g.Edge(graph.EdgeID(id)).Capacity
	}

	// One kernel for the whole call: it reads the positive-capacity arcs
	// once, then every demand's Yen search reuses its scratch.
	solver := graph.NewPathSolver(g)
	var solves int
	var pre graph.SolveStats // Yen precompute work (Dijkstra runs)
	states := make([]kpState, len(demands))
	for i, d := range demands {
		if d.Volume <= 0 {
			continue
		}
		paths := solver.KShortestPaths(d.Src, d.Dst, kk, &pre)
		states[i] = kpState{paths: paths, perPath: make([]float64, len(paths))}
		solves++
	}

	// Water-fill tier by tier: higher-priority classes fill before
	// lower ones touch the spectrum (fairness applies within a class,
	// strict precedence across classes).
	order := byPriority(demands)
	var phases, pushes, scans int
	for start := 0; start < len(order); {
		end := start + 1
		for end < len(order) && demands[order[end]].Priority == demands[order[start]].Priority {
			end++
		}
		tier := order[start:end]
		start = end
		ph, pu, sc := waterFill(demands, states, tier, inc, remaining)
		phases += ph
		pushes += pu
		scans += sc
	}

	alloc := &Allocation{
		Results:  make([]DemandResult, len(demands)),
		EdgeFlow: make([]float64, g.NumEdges()),
		// Phases counts water-fill sweeps plus precompute Dijkstra runs;
		// Relaxations pools Yen's edge examinations with the water-fill
		// room scans — the allocator's two inner loops.
		Solver: SolverStats{
			Solves:        solves,
			Phases:        phases + pre.Phases,
			Augmentations: pushes,
			Pops:          pre.Pops,
			Relaxations:   pre.Relaxations + scans,
		},
	}
	for i, d := range demands {
		st := &states[i]
		alloc.Results[i].Demand = d
		alloc.Results[i].Shipped = st.shipped
		for pi, amt := range st.perPath {
			if amt <= graph.Eps {
				continue
			}
			alloc.Results[i].Paths = append(alloc.Results[i].Paths,
				graph.PathFlow{Path: st.paths[pi], Amount: amt})
			for _, id := range st.paths[pi].Edges {
				alloc.EdgeFlow[id] += amt
			}
		}
	}
	finish(g, alloc)
	return alloc, nil
}

// kpState is the per-demand water-filling state.
type kpState struct {
	paths   []graph.Path
	shipped float64
	perPath []float64
}

// waterFill round-robins increments across the given demand indices
// until none can make progress. It reports the number of round-robin
// sweeps (phases), increments applied (pushes), and path-edge room
// scans (scans — the water-filling analogue of arc relaxations) for
// solver stats.
func waterFill(demands []Demand, states []kpState, tier []int, inc float64, remaining []float64) (phases, pushes, scans int) {
	for progressed := true; progressed; {
		progressed = false
		phases++
		for _, i := range tier {
			d := demands[i]
			st := &states[i]
			want := d.Volume - st.shipped
			if want <= graph.Eps || len(st.paths) == 0 {
				continue
			}
			step := math.Min(inc, want)
			// Pick the first (lowest-weight) path with room.
			for pi, p := range st.paths {
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
				st.perPath[pi] += amt
				st.shipped += amt
				pushes++
				progressed = true
				break
			}
		}
	}
	return phases, pushes, scans
}
