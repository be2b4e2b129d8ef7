package te

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// MaxConcurrent approximates the maximum concurrent multicommodity flow
// with the Garg–Könemann width-independent FPTAS: it finds the largest
// λ such that λ·Volume can be shipped simultaneously for every demand,
// within a (1−ε)³ factor. Demand priorities are intentionally ignored:
// concurrent max-flow's whole point is equal treatment — every demand
// receives the same fraction λ of its ask. This is the combinatorial replacement for the
// LP solvers production TE controllers (SWAN, B4) embed — the paper's
// repro gap in Go is precisely the missing LP ecosystem, so we build
// the approximation scheme instead.
//
// The inner loop is grouped by source (Fleischer's refinement): one
// step grows one shortest-path tree from a source over the current
// lengths (graph.PathSolver.Tree) and fills that source's pending sinks
// along their tree paths, so a phase costs about one search per source
// and saturation re-step instead of one per commodity and push. All
// state is local to an Allocate call: MaxConcurrent values are shared
// across concurrent policies, and nothing carries over between rounds.
type MaxConcurrent struct {
	// Epsilon is the approximation parameter in (0, 0.5]; default 0.1.
	Epsilon float64
}

// Name implements Algorithm.
func (m MaxConcurrent) Name() string { return fmt.Sprintf("max-concurrent(eps=%v)", m.eps()) }

func (m MaxConcurrent) eps() float64 {
	// Tested as membership, not as two exclusions: NaN fails every
	// ordered comparison and would pass "<= 0 || > 0.5".
	if e := m.Epsilon; e > 0 && e <= 0.5 {
		return e
	}
	return 0.1
}

// minNormal is the smallest positive normal float64. Below it a value
// has lost mantissa bits (or is 0) and cannot seed GK's lengths.
const minNormal = 0x1p-1022

// gkGroup is the demands that share one source, in demand order.
type gkGroup struct {
	src     graph.NodeID
	demands []int
}

// Allocate implements Algorithm. The returned allocation ships
// λ·Volume for each demand (same λ — concurrent), capped at Volume
// (λ is clamped to 1: shipping more than asked is pointless here).
func (m MaxConcurrent) Allocate(g *graph.Graph, demands []Demand) (*Allocation, error) {
	if err := validateAll(g, demands); err != nil {
		return nil, err
	}
	eps := m.eps()
	nE := g.NumEdges()
	alloc := &Allocation{
		Results:  make([]DemandResult, len(demands)),
		EdgeFlow: make([]float64, nE),
	}
	for i, d := range demands {
		alloc.Results[i].Demand = d
	}

	// Group the demands by source, sources in order of first appearance.
	groupOf := make([]int, g.NumNodes())
	for i := range groupOf {
		groupOf[i] = -1
	}
	var groups []gkGroup
	for i, d := range demands {
		if d.Volume <= 0 {
			continue
		}
		k := groupOf[d.Src]
		if k < 0 {
			k = len(groups)
			groupOf[d.Src] = k
			groups = append(groups, gkGroup{src: d.Src})
		}
		groups[k].demands = append(groups[k].demands, i)
	}

	// Demands that are disconnected over positive-capacity edges (e.g.
	// after failures) ship zero and are excluded from the concurrent
	// set — otherwise λ would be forced to 0 for everyone. One tree per
	// source over all-zero lengths (a plain reachability pass, left out
	// of the work counts) settles exactly the reachable sinks.
	solver := graph.NewPathSolver(g)
	length := make([]float64, nE)
	var sinks []graph.NodeID
	active := 0
	for k := range groups {
		gr := &groups[k]
		sinks = appendSinks(sinks[:0], demands, gr.demands)
		solver.Tree(gr.src, sinks, length, nil)
		kept := gr.demands[:0]
		for _, i := range gr.demands {
			if solver.Settled(demands[i].Dst) {
				kept = append(kept, i)
			}
		}
		gr.demands = kept
		active += len(kept)
	}
	if active == 0 {
		finish(g, alloc)
		return alloc, nil
	}

	capOf := make([]float64, nE)
	usable := 0 // ≥ 1: an active demand has a path
	for id := range capOf {
		capOf[id] = g.Edge(graph.EdgeID(id)).Capacity
		if capOf[id] > graph.Eps {
			usable++
		}
	}

	// Garg–Könemann: lengths start at δ/cap; each phase routes every
	// commodity's full demand along shortest paths under the current
	// lengths; lengths grow multiplicatively with the load. Terminate
	// when the dual objective D = Σ cap·len reaches 1. Primal flows are
	// then scaled down by log_{1+ε}(1/δ), which makes them feasible.
	delta := math.Pow(float64(usable)/(1-eps), -1/eps)
	if delta < minNormal {
		// With δ = 0 every length stays 0, D never grows, and the loop
		// would spin through all maxPhases for an all-zero answer.
		return nil, fmt.Errorf("te: max-concurrent epsilon %v is too small for %d edges: δ = (m/(1−ε))^(−1/ε) underflows", eps, usable)
	}
	for id, c := range capOf {
		if c > graph.Eps {
			length[id] = delta / c
		}
	}
	// Per-demand raw (unscaled) flows per edge, rows of one slab.
	rawFlow := make([][]float64, len(demands))
	slab := make([]float64, active*nE)
	for _, gr := range groups {
		for _, i := range gr.demands {
			rawFlow[i], slab = slab[:nE:nE], slab[nE:]
		}
	}

	var (
		work      graph.SolveStats
		remaining = make([]float64, len(demands))
		load      = make([]float64, nE) // flow placed on each edge in the current step
		touched   []graph.EdgeID        // edges with load > 0
		path      []graph.EdgeID
		pending   []int
	)
	phases := 0
	maxPhases := int(2*math.Log(float64(usable))/(eps*eps)) + 50 // safety bound
	dual := gkDual(capOf, length)
	for dual < 1 && phases < maxPhases {
		phases++
		for k := range groups {
			gr := &groups[k]
			pending = append(pending[:0], gr.demands...)
			for _, i := range pending {
				remaining[i] = demands[i].Volume
			}
			// One step: one tree from the source under the current
			// lengths, then each pending sink in demand order takes what
			// its tree path still holds — its remaining volume or the
			// least capacity left after the sinks before it. Every push is
			// along an exact shortest path and no edge is loaded beyond its
			// capacity in a step, which is all the GK length update and the
			// feasibility scaling ask of a step. The first pending sink
			// sees empty edges, so every step makes progress; sinks that
			// did not fit go round again on the updated lengths.
			for len(pending) > 0 && dual < 1 {
				sinks = appendSinks(sinks[:0], demands, pending)
				alloc.Solver.Augmentations++
				if !solver.Tree(gr.src, sinks, length, &work) {
					return nil, fmt.Errorf("te: a demand from node %d is disconnected on the positive-capacity subgraph", int(gr.src))
				}
				touched = touched[:0]
				next := pending[:0]
				for _, i := range pending {
					path = solver.AppendPath(path[:0], gr.src, demands[i].Dst)
					amount := remaining[i]
					for _, id := range path {
						if room := capOf[id] - load[id]; room < amount {
							amount = room
						}
					}
					if amount > graph.Eps {
						row := rawFlow[i]
						for _, id := range path {
							if load[id] <= 0 {
								touched = append(touched, id)
							}
							load[id] += amount
							row[id] += amount
						}
						remaining[i] -= amount
					}
					if remaining[i] > graph.Eps {
						next = append(next, i)
					}
				}
				pending = next
				for _, id := range touched {
					length[id] *= 1 + eps*load[id]/capOf[id]
					load[id] = 0
				}
				dual = gkDual(capOf, length)
			}
			if dual >= 1 {
				break
			}
		}
	}

	alloc.Solver.Solves = active
	alloc.Solver.Phases = phases
	alloc.Solver.Pops = work.Pops
	alloc.Solver.Relaxations = work.Relaxations

	// Scale raw flows to feasibility: by the GK analysis, dividing by
	// log_{1+ε}(1/δ) respects every capacity.
	scale := math.Log(1/delta) / math.Log(1+eps)
	if scale <= 0 {
		scale = 1
	}
	// λ is the concurrent fraction every demand can get: the minimum
	// over commodities of (feasible shipped volume / demand volume),
	// clamped to 1 because over-shipping a demand is pointless.
	lambda := math.Inf(1)
	for i, row := range rawFlow {
		if row == nil {
			continue
		}
		l := outVolume(g, demands[i].Src, row) / scale / demands[i].Volume
		if l < lambda {
			lambda = l
		}
	}
	if math.IsInf(lambda, 1) || lambda < 0 {
		lambda = 0
	}
	if lambda > 1 {
		lambda = 1
	}
	// Ship exactly lambda*Volume per demand by scaling each commodity's
	// raw flow to the target (a further scale-down of a feasible flow
	// stays feasible).
	var dec graph.Decomposer
	for i, row := range rawFlow {
		if row == nil {
			continue
		}
		target := lambda * demands[i].Volume
		vol := outVolume(g, demands[i].Src, row)
		if vol <= graph.Eps || target <= graph.Eps {
			continue
		}
		f := target / vol
		for id := range row {
			row[id] *= f
			alloc.EdgeFlow[id] += row[id]
		}
		paths, err := dec.Decompose(g, demands[i].Src, demands[i].Dst, row)
		if err != nil {
			return nil, err
		}
		var shipped float64
		for _, pf := range paths {
			shipped += pf.Amount
		}
		alloc.Results[i].Shipped = shipped
		alloc.Results[i].Paths = paths
	}
	// Numerical safety: if accumulated flow exceeds an edge capacity by
	// rounding, scale everything down uniformly.
	worst := 1.0
	for id, f := range alloc.EdgeFlow {
		if capOf[id] > graph.Eps && f > capOf[id] {
			if r := capOf[id] / f; r < worst {
				worst = r
			}
		} else if capOf[id] <= graph.Eps && f > graph.Eps {
			worst = 0
		}
	}
	if worst < 1 {
		for i := range alloc.EdgeFlow {
			alloc.EdgeFlow[i] *= worst
		}
		for i := range alloc.Results {
			alloc.Results[i].Shipped *= worst
			for j := range alloc.Results[i].Paths {
				alloc.Results[i].Paths[j].Amount *= worst
			}
		}
	}
	finish(g, alloc)
	return alloc, nil
}

// appendSinks appends the destinations of the demands at idx to buf.
func appendSinks(buf []graph.NodeID, demands []Demand, idx []int) []graph.NodeID {
	for _, i := range idx {
		buf = append(buf, demands[i].Dst)
	}
	return buf
}

// gkDual is the GK dual objective D = Σ cap·len over the usable edges.
func gkDual(capOf, length []float64) float64 {
	var s float64
	for id, c := range capOf {
		if c > graph.Eps {
			s += c * length[id]
		}
	}
	return s
}

// outVolume is the net flow leaving src in a per-edge flow vector.
func outVolume(g *graph.Graph, src graph.NodeID, flow []float64) float64 {
	var v float64
	for _, id := range g.Out(src) {
		v += flow[id]
	}
	for _, id := range g.In(src) {
		v -= flow[id]
	}
	return v
}
