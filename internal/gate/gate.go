// Package gate is the one decision stage of the dynamic-capacity control
// loop (§2.2, §4.2): it flaps a channel down when its SNR drops, offers
// the headroom the SNR allows to an unmodified TE as fake edges
// ⟨capacity, penalty⟩, and commits an upgrade only where the TE routed
// flow over one. internal/controller's Step (one wavelength per edge,
// the paper's 1:1) and internal/wan's dynamic policy (every wavelength
// of a fiber behind both of its edges) both run it, so every safeguard
// lives here once: hold-down, a downgrade margin, a restore floor, flap
// damping, a budget on TE-decided upgrades, and pinned capacity
// (§4.2(i): a pinned fiber never changes and its pinned volume is
// hidden from the TE).
//
// A round is Observe for every channel, then Round: settle (forced
// downgrades and restores, then the TE input), the solve and
// translation on Aug.G, cut while the budget asks for a re-solve, and
// commit. Every step is slice-indexed and allocation-free once its
// buffers have grown.
package gate

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/modulation"
	"repro/internal/te"
)

// Kind distinguishes reconfiguration causes.
type Kind int

const (
	// ForcedDowngrade is an SNR-driven flap to a lower rung (the
	// availability mechanism of §2.2).
	ForcedDowngrade Kind = iota
	// Upgrade is a capacity increase: a TE decision, or a restore
	// toward the floor.
	Upgrade
)

// String names the kind.
func (k Kind) String() string {
	if names := [...]string{"forced-downgrade", "upgrade"}; uint(k) < uint(len(names)) {
		return names[k]
	}
	return fmt.Sprintf("OrderKind(%d)", int(k))
}

// Order is one channel's rung change.
type Order struct {
	// Channel is fiber × wavelengths + wavelength.
	Channel  int
	Kind     Kind
	From, To modulation.Gbps
}

// Verdict classifies what the gate concluded for one edge in one round.
// Exactly one verdict is recorded per edge per round; when several
// stages touch an edge, the decisive (last-acting) stage wins.
type Verdict int

const (
	VerdictSteady          Verdict = iota // no headroom, no SNR pressure
	VerdictPinned                         // §4.2(i) pinned flow excludes the edge from changes
	VerdictForcedDowngrade                // SNR forced a flap to a lower rung
	VerdictRestored                       // SNR recovered; capacity returned toward the floor
	VerdictHysteresisHold                 // a higher rung is feasible but not yet held long enough
	VerdictDamped                         // flap damping blocked the upgrade offer
	VerdictOffered                        // fake edge offered, no flow routed over it
	VerdictUpgraded                       // the solver selected the fake edge; upgrade committed
	VerdictBudgetDropped                  // selected, but the change budget dropped it
)

// VerdictNames names each verdict, indexed by its value: the flight
// log records them in its run table, so its readers print these names
// without importing the gate.
var VerdictNames = [...]string{"steady", "pinned", "forced-downgrade", "restored",
	"hysteresis-hold", "damped", "offered-idle", "upgraded", "budget-dropped"}

// String names the verdict for traces and explain output.
func (v Verdict) String() string {
	if uint(v) < uint(len(VerdictNames)) {
		return VerdictNames[v]
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// Settings are the safeguards a loop runs its gate with. The zero
// values of MargindB, Floor and Budget switch their safeguard off.
type Settings struct {
	Ladder  *modulation.Ladder
	Penalty core.PenaltyFunc
	// Hold is how many consecutive observations must support a higher
	// rung before its headroom is offered to the TE.
	Hold int
	// MargindB is subtracted from every SNR sample before the feasible
	// rung is looked up.
	MargindB float64
	// Floor is the restore target of a degraded channel; 0 disables
	// restores.
	Floor modulation.Gbps
	// Budget caps the TE-decided upgrades (edges) committed per round;
	// 0 is unlimited. Forced downgrades and restores are never capped.
	Budget int
}

// Gate is one control loop's decision state. Not safe for concurrent
// use.
type Gate struct {
	Settings
	// Aug is the augmented graph G′ the TE runs on, refreshed by settle
	// and cut.
	Aug *core.Augmenter
	// Pinned is the capacity reserved by pinned flows, per edge.
	Pinned []float64
	// Verdicts is this round's verdict per edge, final after Round.
	Verdicts []Verdict

	top     *core.Topology
	fiberOf []int
	w       int
	// Per channel: conf is the caller's configured rung (settle and
	// commit write it), feas the feasible rung of the last observation,
	// hold its qualifying streak, open whether its headroom is offered.
	conf []modulation.Gbps
	feas []modulation.Gbps
	hold []int
	open []bool
	// Per fiber: held marks a pinned flow on one of its edges, fv the
	// verdict its stage-one orders left.
	held []bool
	fv   []Verdict
	// offered marks, per edge, a fake edge in the current Aug.G.
	offered []bool
	// Flap damping, per channel; damping is nil when off.
	damping    *DampingConfig
	penalty    []float64
	suppressed []bool

	orders []Order
	ranked []core.CapacityChange
}

// New builds the gate of a loop over g whose edge e rides fiber
// fiberOf[e]. conf holds the configured rung of each of the fibers'
// channels (fiber-major, wavelengths > 0 per fiber, as a validated
// wan.Network describes them); the gate reads and writes it in place,
// so the caller owns the configured state. g is
// cloned: the gate never writes the caller's graph. Every channel starts
// unobserved, at feasible rung 0: Observe each before the first Round.
func New(s Settings, g *graph.Graph, fiberOf []int, wavelengths int, conf []modulation.Gbps) (*Gate, error) {
	nFibers := len(conf) / wavelengths
	top := core.NewTopology(g.Clone())
	aug, err := core.NewAugmenter(top, s.Penalty)
	if err != nil {
		return nil, err
	}
	return &Gate{
		Settings: s,
		Aug:      aug,
		Pinned:   make([]float64, len(fiberOf)),
		Verdicts: make([]Verdict, len(fiberOf)),
		top:      top,
		fiberOf:  fiberOf,
		w:        wavelengths,
		conf:     conf,
		feas:     make([]modulation.Gbps, len(conf)),
		hold:     make([]int, len(conf)),
		open:     make([]bool, len(conf)),
		held:     make([]bool, nFibers),
		fv:       make([]Verdict, nFibers),
		offered:  make([]bool, len(fiberOf)),
	}, nil
}

// channels returns the channel range [lo, hi) of fiber f.
func (g *Gate) channels(f int) (lo, hi int) { return f * g.w, (f + 1) * g.w }

// Observe records channel c's SNR sample: its feasible rung (read
// MargindB pessimistically) and its hold streak, which grows while the
// rung is above the configured one and resets otherwise.
func (g *Gate) Observe(c int, snrdB float64) {
	g.feas[c] = 0
	if m, ok := g.Ladder.FeasibleCapacity(snrdB - g.MargindB); ok {
		g.feas[c] = m.Capacity
	}
	if g.feas[c] > g.conf[c] {
		g.hold[c]++
	} else {
		g.hold[c] = 0
	}
}

// Feasible returns channel c's feasible rung at its last observation (0
// when no rung is).
func (g *Gate) Feasible(c int) modulation.Gbps { return g.feas[c] }

// Outcome is what one Round decided. Orders is valid until the next
// Round; Alloc is alg's (a warm allocator reuses it on its next call).
type Outcome struct {
	// Orders lists the round's rung changes: forced downgrades and
	// restores first, then the committed upgrades in dec.Changes order.
	Orders []Order
	// Alloc is the final solve's allocation on Aug.G.
	Alloc *te.Allocation
	// Work is the solver work summed over the round's solves.
	Work te.SolverStats
}

// Round runs one decision round on the channels' last observations:
// settle, alg on Aug.G for demands, the translation into dec, and —
// while the change budget cuts the decision — one more solve on the
// upgrades kept, then commit. traffic[e] is edge e's last flow, read by
// the penalty function.
func (g *Gate) Round(alg te.Algorithm, demands []te.Demand, traffic []float64, dec *core.Decision) (Outcome, error) {
	var out Outcome
	if _, err := g.settle(traffic); err != nil {
		return out, err
	}
	for {
		alloc, err := alg.Allocate(g.Aug.G, demands)
		if err != nil {
			return out, err
		}
		out.Alloc = alloc
		out.Work.Solves += alloc.Solver.Solves
		out.Work.SolveStats.Add(alloc.Solver.SolveStats)
		if err := g.Aug.TranslateInto(dec, graph.FlowResult{Value: alloc.Throughput, EdgeFlow: alloc.EdgeFlow}); err != nil {
			return out, err
		}
		cut, err := g.cut(dec)
		if err != nil {
			return out, err
		}
		if !cut {
			break
		}
	}
	g.commit(dec)
	out.Orders = g.orders
	return out, nil
}

// settle is stage one of a round. Channel by channel (fiber-major), an
// unpinned channel below the floor is restored toward it and one above
// its feasible rung is forced down to it. Then every edge gets the TE
// input: visible capacity (its fiber's configured sum minus pinned),
// the headroom of its fiber's qualified channels as its fake edge, and
// traffic[e] — last round's flow — for the penalty function. It starts
// the round's orders and returns them.
func (g *Gate) settle(traffic []float64) ([]Order, error) {
	g.decay()
	clear(g.held)
	for e, p := range g.Pinned {
		if p > 0 {
			g.held[g.fiberOf[e]] = true
		}
	}
	g.orders = g.orders[:0]
	for f := range g.fv {
		g.fv[f] = VerdictSteady
		lo, hi := g.channels(f)
		if g.held[f] {
			g.fv[f] = VerdictPinned
			clear(g.open[lo:hi])
			continue
		}
		for c := lo; c < hi; c++ {
			if g.conf[c] < g.Floor && g.allowed(c) {
				if to := min(g.feas[c], g.Floor); to > g.conf[c] {
					g.order(c, Upgrade, to)
					g.fv[f] = VerdictRestored
				}
			}
			if g.feas[c] < g.conf[c] {
				g.order(c, ForcedDowngrade, g.feas[c])
				g.hold[c] = 0
				g.fv[f] = VerdictForcedDowngrade
			}
			g.open[c] = g.hold[c] >= g.Hold && g.allowed(c) && g.feas[c] > g.conf[c]
		}
	}
	for e := range g.Verdicts {
		id, f := graph.EdgeID(e), g.fiberOf[e]
		var up modulation.Gbps
		lo, hi := g.channels(f)
		for c := lo; c < hi; c++ {
			if g.open[c] {
				up += g.feas[c] - g.conf[c]
			}
		}
		g.top.G.SetCapacity(id, max(g.Capacity(id)-g.Pinned[e], 0))
		// Unconditional: zero headroom deletes last round's entry.
		if err := g.top.SetUpgrade(id, float64(up), 1); err != nil {
			return nil, err
		}
		if err := g.top.SetTraffic(id, traffic[e]); err != nil {
			return nil, err
		}
		g.Verdicts[e] = g.fv[f]
		g.offered[e] = up > 0
	}
	return g.orders, g.Aug.Refresh()
}

// cut enforces the change budget on a translated decision. When the TE
// selected more upgrades than Budget, the ones carrying the most flow
// over their fake edge win (ties by edge ID), every other fake edge is
// withdrawn from Aug.G, and cut reports true: the first flow is
// infeasible without the dropped upgrades, so Round solves and
// translates again, and cut then reports false.
func (g *Gate) cut(dec *core.Decision) (bool, error) {
	if g.Budget <= 0 || len(dec.Changes) <= g.Budget {
		return false, nil
	}
	g.ranked = append(g.ranked[:0], dec.Changes...)
	slices.SortFunc(g.ranked, func(a, b core.CapacityChange) int {
		if c := cmp.Compare(b.FlowOnFake, a.FlowOnFake); c != 0 {
			return c
		}
		return cmp.Compare(a.Edge, b.Edge)
	})
	clear(g.offered)
	for _, ch := range g.ranked[:g.Budget] {
		g.offered[ch.Edge] = true
	}
	for _, ch := range g.ranked[g.Budget:] {
		g.Verdicts[ch.Edge] = VerdictBudgetDropped
	}
	for e, kept := range g.offered {
		if !kept {
			if err := g.top.SetUpgrade(graph.EdgeID(e), 0, 1); err != nil {
				return false, err
			}
		}
	}
	return true, g.Aug.Refresh()
}

// commit is stage two: every edge the decision upgrades raises its
// fiber's offered channels to their feasible rung — an edge whose
// sibling already raised them orders nothing more — and the edges no
// stage touched are classified. It appends its orders, in dec.Changes
// order, after settle's and returns them.
func (g *Gate) commit(dec *core.Decision) []Order {
	n := len(g.orders)
	for _, ch := range dec.Changes {
		lo, hi := g.channels(g.fiberOf[ch.Edge])
		for c := lo; c < hi; c++ {
			if g.open[c] && g.feas[c] > g.conf[c] {
				g.order(c, Upgrade, g.feas[c])
				g.hold[c] = 0
			}
		}
		g.Verdicts[ch.Edge] = VerdictUpgraded
	}
	for e, v := range g.Verdicts {
		if v == VerdictSteady {
			g.Verdicts[e] = g.untouched(e)
		}
	}
	return g.orders[n:]
}

// untouched tells "no headroom" (steady) from headroom the TE passed
// over (offered) and from headroom a safeguard kept from the TE (held
// down or damped), so explain can show which gate held.
func (g *Gate) untouched(e int) Verdict {
	if g.offered[e] {
		return VerdictOffered
	}
	v := VerdictSteady
	lo, hi := g.channels(g.fiberOf[e])
	for c := lo; c < hi; c++ {
		switch {
		case g.feas[c] <= g.conf[c]:
		case g.hold[c] < g.Hold:
			return VerdictHysteresisHold
		case !g.allowed(c):
			v = VerdictDamped
		}
	}
	return v
}

// Capacity returns edge e's configured capacity: its fiber's sum.
func (g *Gate) Capacity(e graph.EdgeID) float64 {
	var sum modulation.Gbps
	lo, hi := g.channels(g.fiberOf[e])
	for _, c := range g.conf[lo:hi] {
		sum += c
	}
	return float64(sum)
}

// Visible returns the TE input graph of the last Round: every edge at
// its configured capacity minus pinned, no fake edges.
func (g *Gate) Visible() *graph.Graph { return g.top.G }

// order applies one rung change to channel c and records it.
func (g *Gate) order(c int, k Kind, to modulation.Gbps) {
	g.orders = append(g.orders, Order{Channel: c, Kind: k, From: g.conf[c], To: to})
	g.conf[c] = to
	g.charge(c)
}
