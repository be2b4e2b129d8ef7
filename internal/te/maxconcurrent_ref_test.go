package te

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// refMaxConcurrent is MaxConcurrent.Allocate as it stood before a round
// stopped paying for what it does not read: every step grows an exact
// shortest-path tree, every sink walks its whole tree path, the dual is
// summed over every edge after each step. It is kept verbatim, except
// that it also returns λ and no longer decomposes each demand's flow
// into paths, as the reference the loop's λ and work are bounded by
// (boundsRef), and must not be "optimized".
func refMaxConcurrent(eps float64, g *graph.Graph, demands []Demand) (*Allocation, float64, error) {
	if err := validateAll(g, demands); err != nil {
		return nil, 0, err
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
		return alloc, 0, nil
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
		return nil, 0, fmt.Errorf("te: max-concurrent epsilon %v is too small for %d edges: δ = (m/(1−ε))^(−1/ε) underflows", eps, usable)
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
					return nil, 0, fmt.Errorf("te: a demand from node %d is disconnected on the positive-capacity subgraph", int(gr.src))
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
	return alloc, lambda, nil
}

// ulp is the gap from |x| to the next float64 up.
func ulp(x float64) float64 {
	x = math.Abs(x)
	return math.Nextafter(x, math.Inf(1)) - x
}

// boundsRef holds the loop at ε = eps to refMaxConcurrent on one
// instance, by GK's guarantee rather than by bytes: the loop may keep a
// path while it is within (1+ε) of the tree it came from, where the
// reference grows an exact tree every step. It must be feasible, ship
// one common fraction λ to every active demand, reach
// λ ≥ (1−ε)³/(1+ε)·λ_ref (both are promised their factor of the same
// λ*, and λ_ref ≤ λ*), and pop no more than the reference. It reports
// whether any demand shipped.
func boundsRef(t *testing.T, label string, eps float64, g *graph.Graph, demands []Demand) bool {
	t.Helper()
	want, wantLambda, wantErr := refMaxConcurrent(eps, g, demands)
	floor := (1 - eps) * (1 - eps) * (1 - eps) / (1 + eps) * wantLambda
	got, _, _, err := MaxConcurrent{}.allocate(g, demands, eps)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, reference %v", label, err, wantErr)
	}
	if err != nil {
		return false
	}
	if err := CheckFeasible(g, got); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	lambda, err := concurrentLambda(g, got)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if lambda < floor {
		t.Fatalf("%s: λ = %v below (1−ε)³/(1+ε) of the reference's %v", label, lambda, wantLambda)
	}
	if got.Solver.Pops > want.Solver.Pops {
		t.Fatalf("%s: %d pops, reference %d", label, got.Solver.Pops, want.Solver.Pops)
	}
	return got.Throughput > 0
}

// TestMaxConcurrentMatchesRef: on random multigraphs — tied lengths
// (capacities are multiples of 10), parallel and zero-capacity edges,
// unreachable pairs, volumes from 1e-3 to 1e5 — the loop that keeps a
// path while it is short enough stays within GK's guarantee of the
// reference that grows an exact tree every step, for less work.
func TestMaxConcurrentMatchesRef(t *testing.T) {
	r := rng.New(0x28e)
	shipped := 0
	for trial := 0; trial < 330; trial++ {
		g, demands := gkInstance(r, 3)
		for i := range demands {
			if demands[i].Volume > 0 && r.Bernoulli(0.5) {
				demands[i].Volume = math.Pow(10, r.Uniform(-3, 5))
			}
		}
		eps := []float64{0.05, 0.1, 0.2}[trial%3]
		if boundsRef(t, fmt.Sprintf("trial %d eps %v", trial, eps), eps, g, demands) {
			shipped++
		}
	}
	if shipped < 200 {
		t.Fatalf("only %d of 330 instances shipped anything", shipped)
	}
}

// dualBound is GK's own certificate for the lengths an allocate call
// ended with: by weak LP duality, for any lengths l ≥ 0 no concurrent
// flow ships more than D(l)/α(l) of every ask, where D = Σ cap·l over
// the usable edges and α = Σ Volume·dist_l over the active demands —
// those asking for more than Eps of a sink reachable over them. It
// grows one tree per source under l.
func dualBound(g *graph.Graph, demands []Demand, length []float64) float64 {
	capOf := make([]float64, g.NumEdges())
	for id := range capOf {
		capOf[id] = g.Edge(graph.EdgeID(id)).Capacity
	}
	solver := graph.NewPathSolver(g)
	grown := make([]bool, g.NumNodes())
	var (
		alpha float64
		sinks []graph.NodeID
		path  []graph.EdgeID
	)
	for _, d := range demands {
		if d.Volume <= graph.Eps || grown[d.Src] {
			continue
		}
		grown[d.Src] = true
		sinks = sinks[:0]
		for _, e := range demands {
			if e.Src == d.Src && e.Volume > graph.Eps {
				sinks = append(sinks, e.Dst)
			}
		}
		solver.Tree(d.Src, sinks, length, nil)
		for _, e := range demands {
			if e.Src != d.Src || e.Volume <= graph.Eps || !solver.Settled(e.Dst) {
				continue
			}
			path = solver.AppendPath(path[:0], d.Src, e.Dst)
			var dist float64
			for _, id := range path {
				dist += length[id]
			}
			alpha += e.Volume * dist
		}
	}
	return gkDual(capOf, length) / alpha
}

// TestMaxConcurrentSubEpsVolumeInactive: a volume in (0, Eps] can never
// push more than Eps, so counted as active it held λ — and every other
// demand — at 0. It ships 0 and is left out of the concurrent set.
func TestMaxConcurrentSubEpsVolumeInactive(t *testing.T) {
	g := graph.New()
	a := g.AddNodes(3)
	g.AddEdge(graph.Edge{From: a, To: a + 1, Capacity: 100, Weight: 1})
	g.AddEdge(graph.Edge{From: a + 1, To: a + 2, Capacity: 100, Weight: 1})
	for _, tiny := range []float64{1e-12, 1e-9, 2e-9} {
		alloc, err := MaxConcurrent{}.Allocate(g, []Demand{
			{Src: a, Dst: a + 2, Volume: 50},
			{Src: a, Dst: a + 2, Volume: tiny},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := alloc.Results[0].Shipped; math.Abs(got-50) > 1e-9 {
			t.Errorf("tiny %v: the 50 demand shipped %v", tiny, got)
		}
		active := tiny > graph.Eps
		if r := alloc.Results[1]; (r.Shipped > 0) != active {
			t.Errorf("tiny %v: the tiny demand shipped %v", tiny, r.Shipped)
		}
		want := 1
		if active {
			want = 2
		}
		if alloc.Solver.Solves != want {
			t.Errorf("tiny %v: %d active demands, want %d", tiny, alloc.Solver.Solves, want)
		}
	}
}
