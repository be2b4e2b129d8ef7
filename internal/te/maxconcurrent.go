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
type MaxConcurrent struct {
	// Epsilon is the approximation parameter in (0, 0.5]; default 0.1.
	Epsilon float64
}

// Name implements Algorithm.
func (m MaxConcurrent) Name() string { return fmt.Sprintf("max-concurrent(eps=%v)", m.eps()) }

func (m MaxConcurrent) eps() float64 {
	if m.Epsilon <= 0 || m.Epsilon > 0.5 {
		return 0.1
	}
	return m.Epsilon
}

// Allocate implements Algorithm. The returned allocation ships
// λ·Volume for each demand (same λ — concurrent), capped at Volume
// (λ is clamped to 1: shipping more than asked is pointless here).
func (m MaxConcurrent) Allocate(g *graph.Graph, demands []Demand) (*Allocation, error) {
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
