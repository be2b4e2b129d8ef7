package te

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// oracleMaxConcurrentAllocate is MaxConcurrent.Allocate as it stood
// before the loop was grouped by source, kept verbatim with its private
// Dijkstra and heap: one early-exit search per (commodity, push), every
// push limited by the path's bottleneck capacity, dual() re-evaluated
// around each push. It is the reference the grouped loop's λ is held
// against and must not be "optimized".
func oracleMaxConcurrentAllocate(m MaxConcurrent, g *graph.Graph, demands []Demand) (*Allocation, error) {
	if err := validateAll(g, demands); err != nil {
		return nil, err
	}
	eps := m.eps()

	// Demands that are disconnected over positive-capacity edges (e.g.
	// after failures) ship zero and are excluded from the concurrent
	// set — otherwise λ would be forced to 0 for everyone.
	active := make([]int, 0, len(demands))
	for i, d := range demands {
		if d.Volume <= 0 {
			continue
		}
		if _, ok := g.ShortestPathBFS(d.Src, d.Dst); !ok {
			continue
		}
		active = append(active, i)
	}
	alloc := &Allocation{
		Results:  make([]DemandResult, len(demands)),
		EdgeFlow: make([]float64, g.NumEdges()),
	}
	for i, d := range demands {
		alloc.Results[i].Demand = d
	}
	if len(active) == 0 {
		finish(g, alloc)
		return alloc, nil
	}

	nE := g.NumEdges()
	capOf := make([]float64, nE)
	usable := 0
	for _, e := range g.Edges() {
		capOf[e.ID] = e.Capacity
		if e.Capacity > graph.Eps {
			usable++
		}
	}
	if usable == 0 {
		finish(g, alloc)
		return alloc, nil
	}

	// Garg–Könemann: lengths start at δ/cap; each phase routes every
	// commodity's full demand in bottleneck-limited chunks along the
	// current shortest path; lengths grow multiplicatively. Terminate
	// when the dual objective D = Σ cap·len reaches 1. Primal flows are
	// then scaled down by log_{1+ε}(1/δ), which makes them feasible.
	delta := math.Pow(float64(usable)/(1-eps), -1/eps)
	length := make([]float64, nE)
	for id, c := range capOf {
		if c > graph.Eps {
			length[id] = delta / c
		} else {
			length[id] = math.Inf(1)
		}
	}
	// Per-demand raw (unscaled) flows per edge.
	rawFlow := make([][]float64, len(demands))
	for _, i := range active {
		rawFlow[i] = make([]float64, nE)
	}
	dual := func() float64 {
		var s float64
		for id, c := range capOf {
			if c > graph.Eps {
				s += c * length[id]
			}
		}
		return s
	}
	phases := 0
	maxPhases := int(2*math.Log(float64(usable))/(eps*eps)) + 50 // safety bound
	// One scratch set for every push: the GK inner loop runs Dijkstra
	// once per path push, and allocating its buffers per call dominated
	// the allocator profile at backbone scale.
	scratch := newGKScratch(g.NumNodes())
	for dual() < 1 && phases < maxPhases {
		phases++
		for _, i := range active {
			remaining := demands[i].Volume
			for remaining > graph.Eps && dual() < 1 {
				p, _, ok := scratch.shortestByLength(g, demands[i].Src, demands[i].Dst, length, capOf)
				alloc.Solver.Augmentations++
				if !ok {
					return nil, fmt.Errorf("te: demand %d disconnected on positive-capacity subgraph", i)
				}
				bottleneck := remaining
				for _, id := range p.Edges {
					if capOf[id] < bottleneck {
						bottleneck = capOf[id]
					}
				}
				for _, id := range p.Edges {
					rawFlow[i][id] += bottleneck
					length[id] *= 1 + eps*bottleneck/capOf[id]
				}
				remaining -= bottleneck
			}
			if dual() >= 1 {
				break
			}
		}
	}

	alloc.Solver.Solves = len(active)
	alloc.Solver.Phases = phases
	alloc.Solver.Pops = scratch.pops
	alloc.Solver.Relaxations = scratch.relax

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
	for _, i := range active {
		l := outVolume(g, demands[i].Src, rawFlow[i]) / scale / demands[i].Volume
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
	for _, i := range active {
		target := lambda * demands[i].Volume
		vol := outVolume(g, demands[i].Src, rawFlow[i])
		if vol <= graph.Eps || target <= graph.Eps {
			continue
		}
		f := target / vol
		for id := range rawFlow[i] {
			rawFlow[i][id] *= f
			alloc.EdgeFlow[id] += rawFlow[i][id]
		}
		paths, err := g.DecomposeFlow(demands[i].Src, demands[i].Dst, rawFlow[i])
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

// gkItem is one heap entry in the GK Dijkstra.
type gkItem struct {
	node graph.NodeID
	d    float64
}

// gkScratch holds the reusable Dijkstra buffers for Garg–Könemann path
// pushes. One instance serves a whole Allocate call; it is local to the
// call (MaxConcurrent values are shared across concurrent policies, so
// the scratch cannot live on the struct).
type gkScratch struct {
	dist []float64
	prev []graph.EdgeID
	done []bool
	heap []gkItem
	rev  []graph.EdgeID
	path graph.Path

	// Work accounting across the whole Allocate call: heap dequeues and
	// positive-capacity edges examined, pooled over every Dijkstra run.
	// This is what turns "MaxConcurrent is N× slower" into a number the
	// registry can carry: its per-push Dijkstra pops dominate.
	pops  int
	relax int
}

func newGKScratch(n int) *gkScratch {
	return &gkScratch{
		dist: make([]float64, n),
		prev: make([]graph.EdgeID, n),
		done: make([]bool, n),
	}
}

// shortestByLength is Dijkstra over the GK length function, restricted
// to positive-capacity edges. The returned Path aliases scratch buffers
// and is only valid until the next call.
func (s *gkScratch) shortestByLength(g *graph.Graph, src, dst graph.NodeID, length, capOf []float64) (graph.Path, float64, bool) {
	// The graph package's Dijkstra runs over edge Weight; GK needs the
	// evolving length function, so run a local Dijkstra here.
	dist, prev, done := s.dist, s.prev, s.done
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = graph.NoEdge
		done[i] = false
	}
	dist[src] = 0
	// Simple binary heap. Deliberately not folded into internal/graph's
	// shared Dijkstra heap: this one sifts differently (up stops on <=,
	// down picks the smallest of three), the pop order among equal
	// distances decides GK's paths, and nothing pins that the two orders
	// agree.
	heap := append(s.heap[:0], gkItem{src, 0})
	push := func(it gkItem) {
		heap = append(heap, it)
		i := len(heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if heap[p].d <= heap[i].d {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() gkItem {
		top := heap[0]
		heap[0] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(heap) && heap[l].d < heap[small].d {
				small = l
			}
			if r < len(heap) && heap[r].d < heap[small].d {
				small = r
			}
			if small == i {
				break
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
		return top
	}
	for len(heap) > 0 {
		it := pop()
		u := it.node
		s.pops++
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			break
		}
		for _, id := range g.Out(u) {
			e := g.Edge(id)
			if capOf[id] <= graph.Eps {
				continue
			}
			s.relax++
			if nd := dist[u] + length[id]; nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = id
				push(gkItem{e.To, nd})
			}
		}
	}
	s.heap = heap[:0]
	if math.IsInf(dist[dst], 1) {
		return graph.Path{}, 0, false
	}
	// Reconstruct.
	rev := s.rev[:0]
	for at := dst; at != src; {
		id := prev[at]
		rev = append(rev, id)
		at = g.Edge(id).From
	}
	s.rev = rev
	p := graph.Path{
		Nodes: append(s.path.Nodes[:0], src),
		Edges: s.path.Edges[:0],
	}
	for i := len(rev) - 1; i >= 0; i-- {
		p.Edges = append(p.Edges, rev[i])
		p.Nodes = append(p.Nodes, g.Edge(rev[i]).To)
	}
	s.path = p
	return p, dist[dst], true
}

// gkInstance draws one random multigraph for the GK differential tests:
// parallel edges, dead (zero-capacity) edges and an island node no edge
// reaches, under demands drawn from a pool of at most maxSources sources
// (so sources are shared) that include zero volumes and island sinks.
func gkInstance(r *rng.Source, maxSources int) (*graph.Graph, []Demand) {
	n := 4 + r.Intn(8)
	g := graph.New()
	g.AddNodes(n + 1) // node n is the island
	for i, m := 0, n+r.Intn(4*n); i < m; i++ {
		from, to := r.Intn(n), r.Intn(n)
		if from == to {
			continue
		}
		e := graph.Edge{From: graph.NodeID(from), To: graph.NodeID(to), Capacity: float64(10 * (1 + r.Intn(10))), Weight: 1}
		if r.Bernoulli(0.1) {
			e.Capacity = 0
		}
		g.AddEdge(e)
		if r.Bernoulli(0.2) { // a parallel twin, as a fake edge is
			e.Capacity = float64(10 * (1 + r.Intn(10)))
			g.AddEdge(e)
		}
	}
	sources := make([]int, 1+r.Intn(maxSources))
	for i := range sources {
		sources[i] = r.Intn(n)
	}
	var demands []Demand
	for i, m := 0, 1+r.Intn(12); i < m; i++ {
		src, dst := sources[r.Intn(len(sources))], r.Intn(n)
		if src == dst {
			continue
		}
		d := Demand{Src: graph.NodeID(src), Dst: graph.NodeID(dst), Volume: r.Uniform(1, 120), Priority: r.Intn(3)}
		switch {
		case r.Bernoulli(0.1):
			d.Volume = 0
		case r.Bernoulli(0.1):
			d.Dst = graph.NodeID(n)
		}
		demands = append(demands, d)
	}
	return g, demands
}

// concurrentLambda checks that a ships one common fraction of its ask
// to every demand that asks for something reachable and nothing to the
// rest, and returns that fraction (1 when no demand is active).
func concurrentLambda(g *graph.Graph, a *Allocation) (float64, error) {
	lambda, seen := 1.0, false
	for i, r := range a.Results {
		_, reachable := g.ShortestPathBFS(r.Demand.Src, r.Demand.Dst)
		if r.Demand.Volume <= 0 || !reachable {
			if r.Shipped != 0 || len(r.Paths) != 0 {
				return 0, fmt.Errorf("inactive demand %d shipped %v", i, r.Shipped)
			}
			continue
		}
		l := r.Shipped / r.Demand.Volume
		if !seen {
			lambda, seen = l, true
		}
		if math.Abs(l-lambda) > 1e-9 {
			return 0, fmt.Errorf("demand %d ships fraction %v, demand before it %v", i, l, lambda)
		}
	}
	return lambda, nil
}

// TestMaxConcurrentAgainstOracle: on random multigraphs the grouped loop
// returns a feasible allocation that ships one common fraction λ, and
// that λ is within GK's own guarantee of what the per-commodity loop
// found: both are at most the optimum λ*, and each is promised at least
// (1−ε)³·λ*, so λ_new ≥ (1−ε)³·λ_oracle.
func TestMaxConcurrentAgainstOracle(t *testing.T) {
	r := rng.New(0x6b15)
	for trial := 0; trial < 240; trial++ {
		g, demands := gkInstance(r, 3)
		m := MaxConcurrent{Epsilon: []float64{0.05, 0.1, 0.2}[trial%3]}
		want, err := oracleMaxConcurrentAllocate(m, g, demands)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		got, err := m.Allocate(g, demands)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := CheckFeasible(g, got); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		lambda, err := concurrentLambda(g, got)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		oracle, err := concurrentLambda(g, want)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		if e := m.Epsilon; lambda < (1-e)*(1-e)*(1-e)*oracle {
			t.Errorf("trial %d eps %v: λ = %v, per-commodity loop found %v", trial, e, lambda, oracle)
		}
		if got.Solver.Solves != want.Solver.Solves {
			t.Fatalf("trial %d: %d active demands, oracle %d", trial, got.Solver.Solves, want.Solver.Solves)
		}
	}
}

// exactLambda is the optimum concurrent fraction (clamped to 1) of
// demands that all leave src, by bisection: a super-sink behind edges of
// capacity λ·Volume is filled to λ·ΣVolume exactly when λ is feasible.
func exactLambda(t *testing.T, g *graph.Graph, src graph.NodeID, demands []Demand) float64 {
	var total float64
	for _, d := range demands {
		total += d.Volume
	}
	feasible := func(l float64) bool {
		h := g.Clone()
		sink := h.AddNode("super-sink")
		for _, d := range demands {
			h.AddEdge(graph.Edge{From: d.Dst, To: sink, Capacity: l * d.Volume})
		}
		v, err := h.MaxFlowValue(src, sink)
		if err != nil {
			t.Fatal(err)
		}
		return v >= l*total*(1-1e-9)
	}
	if feasible(1) {
		return 1
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 50; i++ {
		if mid := (lo + hi) / 2; feasible(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// TestMaxConcurrentSingleSourceExact: when every demand leaves the same
// source — one tree per step serves them all — the optimum λ* is a
// max-flow computation, and the result is held to the guarantee itself.
func TestMaxConcurrentSingleSourceExact(t *testing.T) {
	r := rng.New(0x51c)
	checked := 0
	for trial := 0; trial < 120; trial++ {
		g, all := gkInstance(r, 1)
		var demands []Demand
		for _, d := range all {
			if _, ok := g.ShortestPathBFS(d.Src, d.Dst); ok && d.Volume > 0 {
				demands = append(demands, d)
			}
		}
		if len(demands) == 0 {
			continue
		}
		opt := exactLambda(t, g, demands[0].Src, demands)
		e := []float64{0.05, 0.1, 0.2}[trial%3]
		got, err := MaxConcurrent{Epsilon: e}.Allocate(g, demands)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := CheckFeasible(g, got); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		lambda, err := concurrentLambda(g, got)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if lambda < (1-e)*(1-e)*(1-e)*opt || lambda > opt*(1+1e-6) {
			t.Errorf("trial %d eps %v: λ = %v outside [(1−ε)³, 1]·λ* for λ* = %v", trial, e, lambda, opt)
		}
		checked++
	}
	if checked < 80 {
		t.Fatalf("only %d instances had an active demand", checked)
	}
}
