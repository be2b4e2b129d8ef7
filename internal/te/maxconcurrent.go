package te

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// MaxConcurrent approximates the maximum concurrent multicommodity flow
// with the Garg–Könemann width-independent FPTAS: it finds the largest
// λ such that λ·Volume can be shipped simultaneously for every demand,
// within a (1−ε)³/(1+ε) factor: GK's (1−ε)³ and one (1+ε) for routing
// along paths up to (1+ε) times the shortest. That is the worst case:
// the loop stops as soon as GK's own dual bound certifies λ within
// (1−ε) of the optimum. Concurrent max-flow's whole point is equal
// treatment: every demand receives the same fraction λ of its ask.
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
// instead of one per commodity and push. Each source group keeps its
// demands' raw flows over only the edges it has pushed along (gkGroup),
// not over every edge of the graph.
//
// A MaxConcurrent value holds no state and may be shared across
// concurrent policies: each Allocate runs the loop on a fresh
// WarmMaxConcurrent, so nothing carries over between calls. te.NewWarm
// returns the form that keeps its solver and buffers across rounds.
type MaxConcurrent struct{}

// gkEpsilon is the approximation parameter ε every run uses.
const gkEpsilon = 0.1

// Name implements Algorithm.
func (MaxConcurrent) Name() string { return fmt.Sprintf("max-concurrent(eps=%v)", gkEpsilon) }

// minNormal is the smallest positive normal float64. Below it a value
// has lost mantissa bits (or is 0) and cannot seed GK's lengths.
const minNormal = 0x1p-1022

// gkHops is the room set aside for each demand's kept path: twice the
// ~30 hops of a continental:200 round's paths.
const gkHops = 64

// dualGuard is how far below 1 the running estimate of the dual D may
// get before D is summed exactly. The estimate drifts from the exact sum
// only by rounding — about 1e-9 after 1e7 additions — so D ≥ 1 always
// shows as an estimate ≥ 1 − dualGuard.
const dualGuard = 1e-6

// gkBlock is how many slots one block of a group's flows holds.
const gkBlock = 32

// gkGroup is the demands that share one source, in demand order, and
// their raw (unscaled) flows over the edges the group has pushed along.
// Those edges are the group's slots, numbered in order of first push;
// each slot holds one flow per demand, in blocks of gkBlock slots, so a
// new slot moves no flow already held.
type gkGroup struct {
	src     graph.NodeID
	demands []int
	edges   []graph.EdgeID
	blocks  [][]float64
}

// flow is the cell of demand demands[j]'s raw flow on slot s.
func (gr *gkGroup) flow(s int32, j int) *float64 {
	return &gr.blocks[uint32(s)/gkBlock][int(uint32(s)%gkBlock)*len(gr.demands)+j]
}

// addSlot gives edge id the group's next slot, each demand's flow on it
// 0, and returns the slot.
func (gr *gkGroup) addSlot(id graph.EdgeID) int32 {
	s := len(gr.edges)
	gr.edges = append(gr.edges, id)
	if b := s / gkBlock; s%gkBlock == 0 {
		gr.blocks = extend(gr.blocks)
		gr.blocks[b] = zeroed(gr.blocks[b], gkBlock*len(gr.demands))
	}
	return int32(s)
}

// Allocate implements Algorithm. The returned allocation ships
// λ·Volume for each demand (same λ — concurrent), capped at Volume
// (λ is clamped to 1: shipping more than asked is pointless here).
func (m MaxConcurrent) Allocate(g *graph.Graph, demands []Demand) (*Allocation, error) {
	a, _, _, err := m.allocate(g, demands, gkEpsilon)
	return a, err
}

// allocate runs the one GK loop on a fresh state at approximation
// parameter eps (gkEpsilon outside the tests).
func (MaxConcurrent) allocate(g *graph.Graph, demands []Demand, eps float64) (*Allocation, float64, []float64, error) {
	return new(WarmMaxConcurrent).allocate(g, demands, eps)
}

// WarmMaxConcurrent is the GK allocator with warm-start state: the
// graph.PathSolver bound to the input graph, the per-edge and
// per-demand buffers, the kept-path room, the group table with its flow
// rows, and the result. Repeated Allocate calls over a structurally
// stable graph reuse all of it. It holds the only GK loop:
// MaxConcurrent.Allocate runs it once on a fresh WarmMaxConcurrent, and
// nothing a call reads survives from the one before, so both return the
// same bits.
//
// As with WarmGreedy, the returned *Allocation (and the lengths
// allocate returns) are owned by the allocator and reused by the next
// Allocate call; callers must copy anything they keep.
//
// Not safe for concurrent use.
type WarmMaxConcurrent struct {
	g      *graph.Graph
	solver *graph.PathSolver
	alloc  Allocation

	// groups are this call's groups; past len, earlier calls' groups
	// keep their buffers for reuse. groupOf[v] is the group of the
	// demands from node v, or -1; col[i] is demand i's column in its
	// group's flow, or -1 while it is not active.
	groups  []gkGroup
	groupOf []int
	col     []int

	// By EdgeID. load is the flow placed in the current step, raw the
	// raw flow placed so far. slotOf[id] is edge id's slot in group
	// bound, or -1.
	length, capOf, load, raw []float64
	slotOf                   []int32
	bound                    int

	// By demand. saved[i] is the tree path demand i was last given, in
	// the kept-path room, which stays with the index from call to call
	// (see keepRoom). base[i] is saved[i]'s length when that tree was
	// grown: lengths only grow, so it is a lower bound on i's current
	// shortest distance. pushed[i] is the raw volume i has pushed.
	remaining, base, pushed []float64
	saved                   [][]graph.EdgeID

	sinks   []graph.NodeID
	touched []graph.EdgeID // edges with load > 0
	pending []int
}

// Name implements Algorithm, reporting the same name as MaxConcurrent
// so metrics and manifests are unchanged by warming.
func (w *WarmMaxConcurrent) Name() string { return MaxConcurrent{}.Name() }

// Allocate implements Algorithm as MaxConcurrent.Allocate does. See the
// type comment for the contract.
func (w *WarmMaxConcurrent) Allocate(g *graph.Graph, demands []Demand) (*Allocation, error) {
	a, _, _, err := w.allocate(g, demands, gkEpsilon)
	return a, err
}

// allocate is the one GK loop, at approximation parameter eps. It also
// returns λ, the common fraction before the feasibility trim, and the
// final lengths by EdgeID, which certify λ through GK's dual bound.
func (w *WarmMaxConcurrent) allocate(g *graph.Graph, demands []Demand, eps float64) (*Allocation, float64, []float64, error) {
	if err := validateAll(g, demands); err != nil {
		return nil, 0, nil, err
	}
	if w.g != g {
		w.g, w.solver = g, graph.NewPathSolver(g)
	} else {
		w.solver.Refresh()
	}
	solver := w.solver
	nE, nD := g.NumEdges(), len(demands)
	alloc := &w.alloc
	alloc.Results = zeroed(alloc.Results, nD)
	alloc.EdgeFlow = zeroed(alloc.EdgeFlow, nE)
	alloc.Solver = SolverStats{}
	for i, d := range demands {
		alloc.Results[i] = DemandResult{Demand: d}
	}
	length := zeroed(w.length, nE)
	capOf := zeroed(w.capOf, nE)
	load, raw := zeroed(w.load, nE), zeroed(w.raw, nE)
	w.length, w.capOf, w.load, w.raw = length, capOf, load, raw
	w.slotOf = filled(w.slotOf, nE, -1)
	slotOf := w.slotOf
	w.bound = -1
	w.groupOf = filled(w.groupOf, g.NumNodes(), -1)
	w.col = filled(w.col, nD, -1)
	remaining, base, pushed := zeroed(w.remaining, nD), zeroed(w.base, nD), zeroed(w.pushed, nD)
	w.remaining, w.base, w.pushed = remaining, base, pushed

	// Group the demands by source, sources in order of first appearance.
	// A volume of at most Eps could never push (a push must exceed Eps),
	// so counting it active would hold λ at 0 for everyone.
	w.groups = w.groups[:0]
	for i, d := range demands {
		if d.Volume <= graph.Eps {
			continue
		}
		k := w.groupOf[d.Src]
		if k < 0 {
			k = w.newGroup(d.Src)
			w.groupOf[d.Src] = k
		}
		w.groups[k].demands = append(w.groups[k].demands, i)
	}
	groups := w.groups

	// Demands that are disconnected over positive-capacity edges (e.g.
	// after failures) ship zero and are excluded from the concurrent
	// set — otherwise λ would be forced to 0 for everyone. One tree per
	// source over all-zero lengths (a plain reachability pass, left out
	// of the work counts) settles exactly the reachable sinks.
	active := 0
	for k := range groups {
		gr := &groups[k]
		w.sinks = appendSinks(w.sinks[:0], demands, gr.demands)
		solver.Tree(gr.src, w.sinks, length, nil)
		kept := gr.demands[:0]
		for _, i := range gr.demands {
			if solver.Settled(demands[i].Dst) {
				w.col[i] = len(kept)
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

	usable := 0 // ≥ 1: an active demand has a path
	for id := range capOf {
		capOf[id] = g.Edge(graph.EdgeID(id)).Capacity
		if capOf[id] > graph.Eps {
			usable++
		}
	}

	// Garg–Könemann: lengths start at δ/cap; each phase routes every
	// commodity's full demand along shortest paths under the current
	// lengths; lengths grow multiplicatively with the load. The raw flow
	// divided by its congestion, its largest raw load/cap, is feasible
	// (lambda). The loop ends after the first phase at which that λ is
	// certified within (1−ε) of GK's dual bound (screened, then
	// certified), or when the dual objective D = Σ cap·len reaches 1:
	// there GK's analysis bounds the congestion by log_{1+ε}(1/δ), which
	// gives λ its guarantee.
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
	saved := w.keepRoom(nD)

	var work graph.SolveStats
	touched, pending := w.touched, w.pending
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
			w.bind(k)
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
			// its capacity in a step, which is all the length update
			// asks of a step. Paths use open arcs only and loads start
			// each step at 0, so the first pending sink pushes more than
			// Eps and every step makes progress; sinks that did not fit
			// go round again on the new lengths.
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
					w.sinks = appendSinks(w.sinks[:0], demands, pending)
					if !solver.Tree(gr.src, w.sinks, length, &work) {
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
						j := w.col[i]
						for _, id := range saved[i] {
							if load[id] <= 0 {
								touched = append(touched, id)
							}
							load[id] += amount
							s := slotOf[id]
							if s < 0 {
								s = gr.addSlot(id)
								slotOf[id] = s
							}
							*gr.flow(s, j) += amount
						}
						remaining[i] -= amount
						pushed[i] += amount
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
					raw[id] += load[id]
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
		// The certificate is checked after every phase, so the loop
		// stops at the first phase whose certificate holds. The exact
		// check grows one tree per source group, about two thirds of a
		// phase's work; the screen grows none and lets it run only
		// where it can pass.
		if dual < 1 && w.screened(demands, eps) && w.certified(demands, eps, &work) {
			break
		}
	}
	w.touched, w.pending = touched, pending

	alloc.Solver.Solves = active
	alloc.Solver.Phases = phases
	alloc.Solver.Pops = work.Pops
	alloc.Solver.Relaxations = work.Relaxations

	// λ is clamped to 1 because over-shipping a demand is pointless.
	lambda := min(w.lambda(demands), 1)
	// Ship exactly lambda*Volume per demand by scaling each commodity's
	// raw flow to the target (a further scale-down of a feasible flow
	// stays feasible), adding demand by demand in demand order; an edge
	// outside the demand's group's slots would add an exact 0.
	for i, j := range w.col {
		if j < 0 {
			continue
		}
		target := lambda * demands[i].Volume
		vol := pushed[i]
		if vol <= graph.Eps || target <= graph.Eps {
			continue
		}
		f := target / vol
		gr := &groups[w.groupOf[demands[i].Src]]
		for s, id := range gr.edges {
			alloc.EdgeFlow[id] += *gr.flow(int32(s), j) * f
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

// lambda is the fraction of its ask that every active demand ships
// when the raw flow is divided by its congestion, the largest raw
// load/cap of any edge: the least divisor that makes the whole raw
// flow feasible. Each demand's raw volume is the total it pushed, as
// every push runs along a simple path out of its source.
func (w *WarmMaxConcurrent) lambda(demands []Demand) float64 {
	var congestion float64
	for id, r := range w.raw {
		if r > 0 {
			congestion = max(congestion, r/w.capOf[id])
		}
	}
	if congestion <= 0 {
		return 0
	}
	lambda := math.Inf(1)
	for i, j := range w.col {
		if j >= 0 {
			lambda = min(lambda, w.pushed[i]/demands[i].Volume)
		}
	}
	return lambda / congestion
}

// certified reports whether lambda is within (1−ε) of GK's dual bound
// on the current lengths l: by weak LP duality no concurrent flow ships
// more than D(l)/α(l) of every ask, where α = Σ Volume·dist_l over the
// active demands, and none ships more than 1 once λ is clamped. α needs
// exact distances, so the check grows one tree per source group, whose
// work counts into work; a kept path may be (1+ε) longer than the
// shortest, so α summed over kept paths would overstate it and certify
// a λ the bound does not cover.
func (w *WarmMaxConcurrent) certified(demands []Demand, eps float64, work *graph.SolveStats) bool {
	var alpha float64
	for k := range w.groups {
		gr := &w.groups[k]
		w.sinks = appendSinks(w.sinks[:0], demands, gr.demands)
		w.solver.Tree(gr.src, w.sinks, w.length, work)
		for _, i := range gr.demands {
			alpha += demands[i].Volume * w.solver.Dist(demands[i].Dst)
		}
	}
	bound := min(gkDual(w.capOf, w.length)/alpha, 1)
	return w.lambda(demands) >= (1-eps)*bound
}

// screenSlack lowers the screen's bound by a relative 1e-9 so that
// rounding never makes it stricter than certified. Demand by demand a
// kept path's length is at least the exact distance in floats too
// (both sum a path's lengths from the source, and Tree's distance is
// the least such sum, float addition being monotone), and both α sums
// add their terms in the same order; but the Go spec lets a compiler
// fuse Volume·dist into the sum in one loop and not the other, and two
// roundings of an n-term sum differ by up to about n·2⁻⁵³ (1e-10 at
// 10⁶ demands). A check the slack lets through is still decided by
// certified.
const screenSlack = 1e-9

// screened reports whether certified can pass, growing no tree. Every
// active demand's kept path is an open path from its source to its
// sink, so α_kept = Σ Volume·length(kept path) ≥ α, and D/α_kept ≤ D/α:
// λ below (1−ε) of min(D/α_kept, 1) is below (1−ε) of the exact bound.
func (w *WarmMaxConcurrent) screened(demands []Demand, eps float64) bool {
	var alpha float64
	for k := range w.groups {
		for _, i := range w.groups[k].demands {
			alpha += demands[i].Volume * gkLength(w.saved[i], w.length)
		}
	}
	bound := min(gkDual(w.capOf, w.length)/alpha, 1)
	return w.lambda(demands) >= (1-eps)*bound*(1-screenSlack)
}

// newGroup appends an empty group of demands from src, reusing the
// buffers of the group that held its place in an earlier call, and
// returns its index.
func (w *WarmMaxConcurrent) newGroup(src graph.NodeID) int {
	w.groups = extend(w.groups)
	k := len(w.groups) - 1
	gr := &w.groups[k]
	gr.src = src
	gr.demands, gr.edges, gr.blocks = gr.demands[:0], gr.edges[:0], gr.blocks[:0]
	return k
}

// keepRoom empties the kept paths of this call's active demands and
// returns them by demand. A demand index keeps the room it had in an
// earlier call, grown past gkHops if a path needed it; the indices that
// have none share one new slab, gkHops entries each.
func (w *WarmMaxConcurrent) keepRoom(nD int) [][]graph.EdgeID {
	if n := nD - len(w.saved); n > 0 {
		w.saved = append(w.saved, make([][]graph.EdgeID, n)...)
	}
	saved := w.saved[:nD]
	bare := 0
	for _, gr := range w.groups {
		for _, i := range gr.demands {
			saved[i] = saved[i][:0]
			if cap(saved[i]) == 0 {
				bare++
			}
		}
	}
	room := make([]graph.EdgeID, bare*gkHops)
	for _, gr := range w.groups {
		for _, i := range gr.demands {
			if cap(saved[i]) == 0 {
				saved[i], room = room[:0:gkHops], room[gkHops:]
			}
		}
	}
	return saved
}

// bind makes slotOf hold group k's slots.
func (w *WarmMaxConcurrent) bind(k int) {
	if w.bound == k {
		return
	}
	if w.bound >= 0 {
		for _, id := range w.groups[w.bound].edges {
			w.slotOf[id] = -1
		}
	}
	for s, id := range w.groups[k].edges {
		w.slotOf[id] = int32(s)
	}
	w.bound = k
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

// zeroed returns buf resized to n with every entry zero, reallocating
// only when its capacity is short.
func zeroed[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// filled returns buf resized to n with every entry v.
func filled[T any](buf []T, n int, v T) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	for i := range buf {
		buf[i] = v
	}
	return buf
}

// extend returns buf one element longer. The new element is the one
// past buf's length when its capacity holds one, so the buffers it
// kept from earlier use can be reused, else a zero value.
func extend[T any](buf []T) []T {
	if len(buf) < cap(buf) {
		return buf[:len(buf)+1]
	}
	var zero T
	return append(buf, zero)
}
