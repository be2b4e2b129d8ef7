package te

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// MaxConcurrent approximates the maximum concurrent multicommodity flow
// with the Garg–Könemann width-independent FPTAS: it finds the largest
// λ such that λ·Volume can be shipped simultaneously for every demand,
// within a (1−ε)³/(1+ε) factor: GK's (1−ε)³ and one (1+ε) for routing
// along paths up to (1+ε) times the shortest. Concurrent max-flow's
// whole point is equal treatment: every demand receives the same
// fraction λ of its ask.
// This is the combinatorial replacement for the LP solvers production
// TE controllers (SWAN, B4) embed — the paper's repro gap in Go is
// precisely the missing LP ecosystem, so we build the approximation
// scheme instead.
//
// The inner loop is grouped by source (Fleischer's refinement): one
// step fills that source's pending sinks along the paths of one
// shortest-path tree over the lengths (graph.PathSolver.Tree), grown
// afresh only once a kept path is more than (1+ε) times its length at
// the tree's growth, so a phase costs about one search per source
// instead of one per commodity and push. All state is local to an
// Allocate call: MaxConcurrent values are shared across concurrent
// policies, and nothing carries over between rounds.
type MaxConcurrent struct{}

// gkEpsilon is the approximation parameter ε every run uses.
const gkEpsilon = 0.1

// Name implements Algorithm.
func (MaxConcurrent) Name() string { return fmt.Sprintf("max-concurrent(eps=%v)", gkEpsilon) }

// minNormal is the smallest positive normal float64. Below it a value
// has lost mantissa bits (or is 0) and cannot seed GK's lengths.
const minNormal = 0x1p-1022

// gkHops is the room set aside for each demand's saved path: twice the
// ~30 hops of a continental:200 round's paths.
const gkHops = 64

// dualGuard is how far below 1 the running estimate of the dual D may
// get before D is summed exactly. The estimate drifts from the exact sum
// only by rounding — about 1e-9 after 1e7 additions — so D ≥ 1 always
// shows as an estimate ≥ 1 − dualGuard.
const dualGuard = 1e-6

// gkGroup is the demands that share one source, in demand order.
type gkGroup struct {
	src     graph.NodeID
	demands []int
}

// Allocate implements Algorithm. The returned allocation ships
// λ·Volume for each demand (same λ — concurrent), capped at Volume
// (λ is clamped to 1: shipping more than asked is pointless here).
func (m MaxConcurrent) Allocate(g *graph.Graph, demands []Demand) (*Allocation, error) {
	a, _, _, err := m.allocate(g, demands, gkEpsilon)
	return a, err
}

// allocate is the one GK loop, at approximation parameter eps (gkEpsilon
// outside the tests). It also returns λ, the common fraction before the
// feasibility trim, and the final lengths by EdgeID, which certify λ
// through GK's dual bound.
func (MaxConcurrent) allocate(g *graph.Graph, demands []Demand, eps float64) (*Allocation, float64, []float64, error) {
	if err := validateAll(g, demands); err != nil {
		return nil, 0, nil, err
	}
	nE := g.NumEdges()
	alloc := &Allocation{
		Results:  make([]DemandResult, len(demands)),
		EdgeFlow: make([]float64, nE),
	}
	for i, d := range demands {
		alloc.Results[i].Demand = d
	}

	// Group the demands by source, sources in order of first appearance.
	// A volume of at most Eps could never push (a push must exceed Eps),
	// so counting it active would hold λ at 0 for everyone.
	groupOf := make([]int, g.NumNodes())
	for i := range groupOf {
		groupOf[i] = -1
	}
	var groups []gkGroup
	for i, d := range demands {
		if d.Volume <= graph.Eps {
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
		return alloc, 0, length, nil
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
		return nil, 0, nil, fmt.Errorf("te: max-concurrent epsilon %v is too small for %d edges: δ = (m/(1−ε))^(−1/ε) underflows", eps, usable)
	}
	for id, c := range capOf {
		if c > graph.Eps {
			length[id] = delta / c
		}
	}
	// Per-demand raw (unscaled) flows per edge, rows of one slab, and
	// room for each demand's saved path in another (a longer path grows
	// its own).
	rawFlow := make([][]float64, len(demands))
	saved := make([][]graph.EdgeID, len(demands))
	slab := make([]float64, active*nE)
	edges := make([]graph.EdgeID, active*gkHops)
	for _, gr := range groups {
		for _, i := range gr.demands {
			rawFlow[i], slab = slab[:nE:nE], slab[nE:]
			saved[i], edges = edges[:0:gkHops], edges[gkHops:]
		}
	}

	var (
		work      graph.SolveStats
		remaining = make([]float64, len(demands))
		load      = make([]float64, nE) // flow placed on each edge in the current step
		touched   []graph.EdgeID        // edges with load > 0
		pending   []int
		// base[i] is the length of saved[i], the tree path demand i was
		// last given, when that tree was grown: lengths only grow, so it
		// is a lower bound on i's current shortest distance.
		base = make([]float64, len(demands))
	)
	phases := 0
	maxPhases := int(2*math.Log(float64(usable))/(eps*eps)) + 50 // safety bound
	// D is only ever compared with 1, so between exact sums it is
	// tracked as a running estimate (see dualGuard).
	dual := gkDual(capOf, length)
	estimate := dual
	for dual < 1 && phases < maxPhases {
		phases++
		for k := range groups {
			gr := &groups[k]
			pending = append(pending[:0], gr.demands...)
			for _, i := range pending {
				remaining[i] = demands[i].Volume
			}
			// One step: while every pending sink's saved path is within
			// (1+ε) of its base, the step fills along the saved paths;
			// otherwise it grows one tree from the source under the
			// current lengths and saves the new tree paths. Then each
			// pending sink in demand order takes what its path still
			// holds — its remaining volume or the least capacity left
			// after the sinks before it. Every push is along a path at
			// most (1+ε) times the current shortest, the approximate
			// oracle GK's analysis admits, and no edge is loaded beyond
			// its capacity in a step, which is all the length update and
			// the feasibility scaling ask of a step. Paths use open arcs
			// only and loads start each step at 0, so the first pending
			// sink pushes more than Eps and every step makes progress;
			// sinks that did not fit go round again on the new lengths.
			for len(pending) > 0 && dual < 1 {
				alloc.Solver.Augmentations++
				grow := false
				for _, i := range pending {
					if len(saved[i]) == 0 || gkLength(saved[i], length) > (1+eps)*base[i] {
						grow = true
						break
					}
				}
				if grow {
					sinks = appendSinks(sinks[:0], demands, pending)
					if !solver.Tree(gr.src, sinks, length, &work) {
						return nil, 0, nil, fmt.Errorf("te: a demand from node %d is disconnected on the positive-capacity subgraph", int(gr.src))
					}
					for _, i := range pending {
						saved[i] = solver.AppendPath(saved[i][:0], gr.src, demands[i].Dst)
						base[i] = solver.Dist(demands[i].Dst)
					}
				}
				touched = touched[:0]
				next := pending[:0]
				for _, i := range pending {
					// A pending sink has remaining > Eps, so a path with
					// room > Eps on every edge takes a push > Eps.
					if room := gkRoom(saved[i], capOf, load); room > graph.Eps {
						amount := min(remaining[i], room)
						row := rawFlow[i]
						for _, id := range saved[i] {
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
					old := length[id]
					length[id] = old * (1 + eps*load[id]/capOf[id])
					estimate += capOf[id] * (length[id] - old)
					load[id] = 0
				}
				dual = estimate
				if estimate >= 1-dualGuard {
					dual = gkDual(capOf, length)
					estimate = dual
				}
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
		alloc.Results[i].Shipped = target
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
		}
	}
	finish(g, alloc)
	return alloc, lambda, length, nil
}

// gkRoom is the least room capOf − load on path. It walks from the
// source, where the edges a group's sinks share fill first, and stops
// with 0 at the first edge with room ≤ Eps.
func gkRoom(path []graph.EdgeID, capOf, load []float64) float64 {
	room := math.Inf(1)
	for _, id := range path {
		r := capOf[id] - load[id]
		if r <= graph.Eps {
			return 0
		}
		room = min(room, r)
	}
	return room
}

// gkLength is path's length under length, summed in path order.
func gkLength(path []graph.EdgeID, length []float64) float64 {
	var sum float64
	for _, id := range path {
		sum += length[id]
	}
	return sum
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
