// Package controller implements the operational control loop the paper
// sketches but leaves implicit: a centralized WAN controller that
// ingests per-link SNR telemetry, maintains the dynamic-capacity
// topology, periodically re-runs an unmodified TE algorithm through the
// §4 graph abstraction, and turns the TE output into transceiver
// reconfiguration orders.
//
// The controller adds the operational safeguards a deployment needs on
// top of the raw abstraction:
//
//   - hysteresis: a link must sustain the SNR for a higher rung for
//     several consecutive observations before its upgrade is offered to
//     TE (avoiding capacity oscillation on noisy links);
//   - a downgrade margin: a link flaps down as soon as SNR falls within
//     the margin of its current threshold (conservative availability);
//   - pinned flows (§4.2(i)): traffic that must not be disturbed hides
//     both its links' upgradability and its own capacity from TE;
//   - consistent updates (§4.2(ii)): a three-state plan — reroute away
//     from the links being re-modulated, reconfigure, converge — so no
//     packet crosses a link mid-change.
package controller

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/modulation"
	"repro/internal/obs"
	"repro/internal/te"
)

// OrderKind distinguishes reconfiguration causes.
type OrderKind int

const (
	// OrderForcedDowngrade is an SNR-driven flap to a lower rung (the
	// availability mechanism of §2.2).
	OrderForcedDowngrade OrderKind = iota
	// OrderUpgrade is a TE-decided capacity increase.
	OrderUpgrade
)

// String names the kind.
func (k OrderKind) String() string {
	switch k {
	case OrderForcedDowngrade:
		return "forced-downgrade"
	case OrderUpgrade:
		return "upgrade"
	default:
		return fmt.Sprintf("OrderKind(%d)", int(k))
	}
}

// Order is one modulation change the controller wants executed.
type Order struct {
	Edge     graph.EdgeID
	Kind     OrderKind
	From, To modulation.Gbps
}

// Verdict classifies what the decision pipeline concluded for one edge
// in one Step — the per-link audit trail the flight recorder surfaces.
// Exactly one verdict is recorded per edge per Step; when several
// stages touch an edge, the decisive (last-acting) stage wins.
type Verdict int

const (
	// VerdictSteady: nothing to decide — no headroom, no SNR pressure.
	VerdictSteady Verdict = iota
	// VerdictPinned: §4.2(i) pinned flow excludes the edge from changes.
	VerdictPinned
	// VerdictForcedDowngrade: SNR forced a flap to a lower rung.
	VerdictForcedDowngrade
	// VerdictRestored: SNR recovered and capacity returned toward
	// nominal (bypasses hysteresis; not a TE optimization).
	VerdictRestored
	// VerdictHysteresisHold: a higher rung is feasible but the hold
	// count has not yet qualified it, so no fake edge was offered.
	VerdictHysteresisHold
	// VerdictDamped: flap damping blocked the upgrade offer.
	VerdictDamped
	// VerdictOffered: a fake edge was offered and the solver routed no
	// flow over it — headroom available but not worth the penalty.
	VerdictOffered
	// VerdictUpgraded: the solver selected the fake edge and the
	// upgrade was committed.
	VerdictUpgraded
	// VerdictBudgetDropped: the solver selected the upgrade but the
	// per-round change budget dropped it.
	VerdictBudgetDropped
)

// String names the verdict for traces and explain output.
func (v Verdict) String() string {
	switch v {
	case VerdictSteady:
		return "steady"
	case VerdictPinned:
		return "pinned"
	case VerdictForcedDowngrade:
		return "forced-downgrade"
	case VerdictRestored:
		return "restored"
	case VerdictHysteresisHold:
		return "hysteresis-hold"
	case VerdictDamped:
		return "damped"
	case VerdictOffered:
		return "offered-idle"
	case VerdictUpgraded:
		return "upgraded"
	case VerdictBudgetDropped:
		return "budget-dropped"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Plan is the output of one control-loop iteration.
type Plan struct {
	// Orders lists modulation changes, forced downgrades first.
	Orders []Order
	// Allocation is the TE result on the augmented topology.
	Allocation *te.Allocation
	// Decision is the translated capacity/flow decision.
	Decision *core.Decision
	// Verdicts records, for every edge, what the decision pipeline
	// concluded this Step (see Verdict).
	Verdicts map[graph.EdgeID]Verdict
	// EstimatedDisruption is Σ over re-modulated links of (current
	// traffic × per-change downtime).
	EstimatedDisruption float64
}

// Config tunes the control loop.
type Config struct {
	// Ladder is the modulation ladder (default modulation.Default()).
	Ladder *modulation.Ladder
	// TE is the traffic-engineering algorithm (default te.Greedy).
	TE te.Algorithm
	// Penalty maps link state to augmentation costs (default
	// core.PenaltyTrafficProportional).
	Penalty core.PenaltyFunc
	// UpgradeHoldObservations is how many consecutive SNR observations
	// must support a higher rung before the upgrade is offered
	// (default 3).
	UpgradeHoldObservations int
	// DowngradeMargindB flaps a link down when SNR < threshold +
	// margin (default 0.5 dB).
	DowngradeMargindB float64
	// ChangeDowntime estimates per-change disruption (default 68 s;
	// set 35 ms for hitless transceivers).
	ChangeDowntime time.Duration
	// Obs receives decision traces and counters. Nil (the default)
	// disables observability at no cost: every sink method is nil-safe.
	Obs *obs.Obs
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.Ladder == nil {
		c.Ladder = modulation.Default()
	}
	if c.TE == nil {
		c.TE = te.Greedy{}
	}
	if c.Penalty == nil {
		c.Penalty = core.PenaltyTrafficProportional
	}
	if c.UpgradeHoldObservations <= 0 {
		c.UpgradeHoldObservations = 3
	}
	if c.DowngradeMargindB == 0 {
		c.DowngradeMargindB = 0.5
	}
	if c.ChangeDowntime == 0 {
		c.ChangeDowntime = 68 * time.Second
	}
	return c
}

// emitOrder records one reconfiguration order on the observability
// sinks. The trace event carries everything the order itself does, so
// a trace consumer can replay exactly what the controller decided.
func (c *Controller) emitOrder(o Order) {
	c.cfg.Obs.Counter("controller_orders_total", //nolint:seriesname // cold: once per issued order, labeled by its kind
		"Reconfiguration orders issued by the controller, by kind.",
		obs.L("kind", o.Kind.String())).Inc()
	c.cfg.Obs.Event("controller.order",
		obs.A("edge", int(o.Edge)),
		obs.A("kind", o.Kind.String()),
		obs.A("from_gbps", float64(o.From)),
		obs.A("to_gbps", float64(o.To)))
	c.cfg.Obs.Logger().Debug("reconfiguration order",
		"edge", int(o.Edge),
		"kind", o.Kind.String(),
		"from_gbps", float64(o.From),
		"to_gbps", float64(o.To))
}

// linkState tracks one directed edge (= one wavelength, the paper's
// 1:1 mapping).
type linkState struct {
	configured modulation.Gbps
	// nominal is the baseline capacity the link is restored to (without
	// hysteresis) as soon as SNR recovers after a forced downgrade.
	// Raising capacity ABOVE nominal is an optimization and goes
	// through hysteresis + TE.
	nominal modulation.Gbps
	snrdB   float64
	// holdCount counts consecutive observations whose SNR supports a
	// rung above the configured one.
	holdCount int
	// lastFlow is the most recent TE traffic on the edge, feeding the
	// penalty function.
	lastFlow float64
	// pinned marks edges carrying undisturbable flows.
	pinned bool
	// pinnedCapacity is the capacity reserved by pinned flows.
	pinnedCapacity float64
}

// pinnedFlow is a §4.2(i) flow that must not be disturbed.
type pinnedFlow struct {
	path   graph.Path
	volume float64
}

// Controller is the control loop state.
type Controller struct {
	cfg   Config
	g     *graph.Graph // physical topology; capacities = configured
	links map[graph.EdgeID]*linkState
	pins  []pinnedFlow
	// damping and damp implement capacity-flap damping (see
	// damping.go); nil when disabled.
	damping *DampingConfig
	damp    map[graph.EdgeID]*dampState
	// maxChanges caps TE-decided upgrades per Step (0 = unlimited).
	maxChanges int
	// teSolves is the per-solve work counter, registered by the first
	// TE run.
	teSolves *obs.Counter
}

// New builds a controller over a physical topology whose edges start at
// the given capacity (typically 100 Gbps) with unknown (optimistic)
// SNR. Edge capacities in g are overwritten by the controller.
func New(g *graph.Graph, initial modulation.Gbps, cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if g == nil {
		return nil, fmt.Errorf("controller: nil graph")
	}
	if _, ok := cfg.Ladder.ModeFor(initial); !ok {
		return nil, fmt.Errorf("controller: initial capacity %v not in ladder", initial)
	}
	c := &Controller{cfg: cfg, g: g, links: make(map[graph.EdgeID]*linkState)}
	initTh, err := cfg.Ladder.ThresholdFor(initial)
	if err != nil {
		return nil, err
	}
	for _, e := range g.Edges() {
		// Until telemetry arrives, assume the link is healthy at its
		// configured rung (threshold plus the safety margin); the first
		// real observation overwrites this.
		c.links[e.ID] = &linkState{
			configured: initial,
			nominal:    initial,
			snrdB:      initTh + cfg.DowngradeMargindB,
		}
		g.SetCapacity(e.ID, float64(initial))
	}
	return c, nil
}

// Configured returns the configured capacity of an edge.
func (c *Controller) Configured(id graph.EdgeID) (modulation.Gbps, error) {
	ls, ok := c.links[id]
	if !ok {
		return 0, fmt.Errorf("controller: unknown edge %d", int(id))
	}
	return ls.configured, nil
}

// ObserveSNR ingests one telemetry sample for an edge and updates the
// hysteresis state. It returns the forced-downgrade order the sample
// triggers, if any (the caller decides when to execute it; Step also
// collects pending downgrades).
func (c *Controller) ObserveSNR(id graph.EdgeID, snrdB float64) (*Order, error) {
	ls, ok := c.links[id]
	if !ok {
		return nil, fmt.Errorf("controller: unknown edge %d", int(id))
	}
	ls.snrdB = snrdB

	// Hysteresis accounting for upgrades: does this sample support a
	// rung above the configured one (with margin)?
	next, hasNext := c.cfg.Ladder.NextUp(ls.configured)
	if hasNext && snrdB >= next.MinSNRdB+c.cfg.DowngradeMargindB {
		ls.holdCount++
		if ls.holdCount == c.cfg.UpgradeHoldObservations {
			// Hysteresis transition: the link just qualified to offer
			// its upgrade headroom to TE.
			c.cfg.Obs.Counter("controller_hysteresis_qualified_total", //nolint:seriesname // cold: a hysteresis transition, not a sample
				"Links whose SNR sustained a higher rung long enough to offer the upgrade to TE.").Inc()
			c.cfg.Obs.Event("controller.hysteresis_qualified",
				obs.A("edge", int(id)),
				obs.A("snr_db", snrdB),
				obs.A("hold", ls.holdCount))
		}
	} else {
		if ls.holdCount >= c.cfg.UpgradeHoldObservations {
			c.cfg.Obs.Event("controller.hysteresis_reset",
				obs.A("edge", int(id)),
				obs.A("snr_db", snrdB))
		}
		ls.holdCount = 0
	}

	// Forced downgrade: SNR within the margin of the current rung.
	cur, ok := c.cfg.Ladder.ModeFor(ls.configured)
	if ok && ls.configured > 0 && snrdB < cur.MinSNRdB+c.cfg.DowngradeMargindB {
		target, feasible := c.cfg.Ladder.FeasibleCapacity(snrdB - c.cfg.DowngradeMargindB)
		to := modulation.Gbps(0)
		if feasible {
			to = target.Capacity
		}
		if to < ls.configured {
			return &Order{Edge: id, Kind: OrderForcedDowngrade, From: ls.configured, To: to}, nil
		}
	}
	return nil, nil
}

// PinFlow registers a flow that must not be disturbed (§4.2(i)): the
// links on its path are excluded from capacity changes and the flow's
// capacity is hidden from the TE optimization.
func (c *Controller) PinFlow(p graph.Path, volume float64) error {
	if err := p.Validate(c.g); err != nil {
		return err
	}
	if volume <= 0 {
		return fmt.Errorf("controller: pinned flow needs positive volume")
	}
	for _, id := range p.Edges {
		ls := c.links[id]
		if float64(ls.configured)-ls.pinnedCapacity < volume {
			return fmt.Errorf("controller: edge %d lacks %v Gbps for pinned flow", int(id), volume)
		}
	}
	for _, id := range p.Edges {
		c.links[id].pinned = true
		c.links[id].pinnedCapacity += volume
	}
	c.pins = append(c.pins, pinnedFlow{path: p, volume: volume})
	return nil
}

// UnpinAll releases every pinned flow.
func (c *Controller) UnpinAll() {
	for _, ls := range c.links {
		ls.pinned = false
		ls.pinnedCapacity = 0
	}
	c.pins = nil
}

// Step runs one control-loop iteration against the given demands:
// forced downgrades are applied, the augmented topology is built from
// hysteresis-qualified headroom, the TE runs, and the translation
// becomes upgrade orders. The returned plan has already been applied to
// the controller's configured state.
func (c *Controller) Step(demands []te.Demand) (*Plan, error) {
	endStep := c.cfg.Obs.Span("controller.step")
	defer endStep()
	plan := &Plan{Verdicts: make(map[graph.EdgeID]Verdict, len(c.links))}
	c.decayDamping()
	for _, e := range c.g.Edges() {
		if c.links[e.ID].pinned {
			plan.Verdicts[e.ID] = VerdictPinned
		} else {
			plan.Verdicts[e.ID] = VerdictSteady
		}
	}

	// 1. Apply pending forced downgrades based on the latest SNR.
	for _, e := range c.g.Edges() {
		ls := c.links[e.ID]
		if ls.pinned {
			continue // §4.2(i): links under pinned flows do not change
		}
		// Restore toward nominal as soon as SNR allows: recovering a
		// degraded or dark link is not an optimization, so it bypasses
		// hysteresis (capacity ABOVE nominal still requires it). Flap
		// damping still applies — a link oscillating around a threshold
		// must not restore on every swing.
		if ls.configured < ls.nominal && c.upgradeAllowed(e.ID) {
			if m, feasible := c.cfg.Ladder.FeasibleCapacity(ls.snrdB - c.cfg.DowngradeMargindB); feasible {
				target := m.Capacity
				if target > ls.nominal {
					target = ls.nominal
				}
				if target > ls.configured {
					o := Order{Edge: e.ID, Kind: OrderUpgrade, From: ls.configured, To: target}
					plan.Orders = append(plan.Orders, o)
					c.emitOrder(o)
					plan.EstimatedDisruption += ls.lastFlow * c.cfg.ChangeDowntime.Seconds()
					ls.configured = target
					c.chargeDamping(e.ID)
					plan.Verdicts[e.ID] = VerdictRestored
				}
			}
		}
		cur, ok := c.cfg.Ladder.ModeFor(ls.configured)
		if !ok || ls.configured == 0 {
			continue
		}
		if ls.snrdB < cur.MinSNRdB+c.cfg.DowngradeMargindB {
			target, feasible := c.cfg.Ladder.FeasibleCapacity(ls.snrdB - c.cfg.DowngradeMargindB)
			to := modulation.Gbps(0)
			if feasible {
				to = target.Capacity
			}
			if to < ls.configured {
				o := Order{Edge: e.ID, Kind: OrderForcedDowngrade, From: ls.configured, To: to}
				plan.Orders = append(plan.Orders, o)
				c.emitOrder(o)
				plan.EstimatedDisruption += ls.lastFlow * c.cfg.ChangeDowntime.Seconds()
				ls.configured = to
				ls.holdCount = 0
				c.chargeDamping(e.ID)
				plan.Verdicts[e.ID] = VerdictForcedDowngrade
			}
		}
	}

	// 2+3. Build the TE input (pinned capacity hidden; hysteresis and
	//      flap damping gate upgrade headroom), augment, run the
	//      unmodified TE, translate.
	alloc, dec, aug, err := c.runTE(demands, c.upgradeAllowed)
	if err != nil {
		return nil, err
	}

	// 4. Enforce the per-round change budget: if the TE wants more
	//    upgrades than allowed, keep the ones enabling the most new
	//    traffic and re-run the TE restricted to them (the original
	//    flow would be infeasible without the dropped upgrades).
	if c.maxChanges > 0 && len(dec.Changes) > c.maxChanges {
		var candidates []Order
		flowOnFake := make(map[graph.EdgeID]float64, len(dec.Changes))
		for _, ch := range dec.Changes {
			candidates = append(candidates, Order{
				Edge: ch.Edge, Kind: OrderUpgrade,
				From: c.links[ch.Edge].configured, To: modulation.Gbps(ch.NewCapacity),
			})
			flowOnFake[ch.Edge] = ch.FlowOnFake
		}
		kept := c.applyChangeBudget(candidates, flowOnFake)
		c.cfg.Obs.Counter("controller_budget_reruns_total", //nolint:seriesname // cold: only when the change budget forces a re-run
			"TE re-runs forced by the per-round change budget.").Inc()
		c.cfg.Obs.Event("controller.change_budget",
			obs.A("candidates", len(candidates)),
			obs.A("kept", len(kept)),
			obs.A("budget", c.maxChanges))
		keptSet := make(map[graph.EdgeID]bool, len(kept))
		for _, o := range kept {
			keptSet[o.Edge] = true
		}
		alloc, dec, aug, err = c.runTE(demands, func(id graph.EdgeID) bool {
			return keptSet[id] && c.upgradeAllowed(id)
		})
		if err != nil {
			return nil, err
		}
		for _, o := range candidates {
			if !keptSet[o.Edge] {
				plan.Verdicts[o.Edge] = VerdictBudgetDropped
			}
		}
	}
	plan.Allocation = alloc
	plan.Decision = dec

	// Attribute the solver's fake-edge selections (Theorem 1's implicit
	// decisions made explicit): offered-but-idle vs selected; selected
	// edges flip to VerdictUpgraded in the commit loop below.
	for _, att := range aug.Attribution(alloc.EdgeFlow) {
		if plan.Verdicts[att.Real] == VerdictSteady {
			plan.Verdicts[att.Real] = VerdictOffered
		}
	}

	// Commit TE-decided upgrades as orders.
	for _, ch := range dec.Changes {
		ls := c.links[ch.Edge]
		// Upgrades on pinned links are filtered in runTE, so the
		// visible capacity in ch equals the configured capacity here.
		to := modulation.Gbps(ch.NewCapacity)
		o := Order{Edge: ch.Edge, Kind: OrderUpgrade, From: ls.configured, To: to}
		plan.Orders = append(plan.Orders, o)
		c.emitOrder(o)
		plan.EstimatedDisruption += ls.lastFlow * c.cfg.ChangeDowntime.Seconds()
		ls.configured = to
		ls.holdCount = 0
		c.chargeDamping(ch.Edge)
		plan.Verdicts[ch.Edge] = VerdictUpgraded
	}

	// Classify the edges no stage touched: distinguish "no headroom"
	// (steady) from "headroom gated before it reached TE" (hysteresis
	// hold or flap damping), so explain can show which gate held.
	for _, e := range c.g.Edges() {
		if plan.Verdicts[e.ID] != VerdictSteady {
			continue
		}
		ls := c.links[e.ID]
		m, feasible := c.cfg.Ladder.FeasibleCapacity(ls.snrdB - c.cfg.DowngradeMargindB)
		if !feasible || m.Capacity <= ls.configured {
			continue
		}
		if ls.holdCount < c.cfg.UpgradeHoldObservations {
			plan.Verdicts[e.ID] = VerdictHysteresisHold
		} else if !c.upgradeAllowed(e.ID) {
			plan.Verdicts[e.ID] = VerdictDamped
		}
	}

	// 5. Record flows for the next round's penalties and restore the
	//    graph to the committed configured capacities.
	for _, e := range c.g.Edges() {
		ls := c.links[e.ID]
		ls.lastFlow = dec.EdgeFlow[e.ID]
		c.g.SetCapacity(e.ID, float64(ls.configured))
	}
	c.cfg.Obs.Logger().Debug("control step complete",
		"orders", len(plan.Orders),
		"throughput_gbps", dec.Value,
		"est_disrupted_gbps_sec", plan.EstimatedDisruption)
	return plan, nil
}

// runTE builds the augmented topology (honoring pins, hysteresis, and
// the allowUpgrade filter), runs the TE, and translates the result. The
// augmentation is returned alongside so Step can attribute fake-edge
// selections per link.
func (c *Controller) runTE(demands []te.Demand, allowUpgrade func(graph.EdgeID) bool) (*te.Allocation, *core.Decision, *core.Augmentation, error) {
	top := core.NewTopology(c.g)
	for _, e := range c.g.Edges() {
		ls := c.links[e.ID]
		visible := float64(ls.configured) - ls.pinnedCapacity
		if visible < 0 {
			visible = 0
		}
		c.g.SetCapacity(e.ID, visible)
		if err := top.SetTraffic(e.ID, ls.lastFlow); err != nil {
			return nil, nil, nil, err
		}
		if ls.pinned || ls.holdCount < c.cfg.UpgradeHoldObservations {
			continue
		}
		if allowUpgrade != nil && !allowUpgrade(e.ID) {
			continue
		}
		// Headroom up to the highest hysteresis-supported rung.
		m, feasible := c.cfg.Ladder.FeasibleCapacity(ls.snrdB - c.cfg.DowngradeMargindB)
		if !feasible || m.Capacity <= ls.configured {
			continue
		}
		if err := top.SetUpgrade(e.ID, float64(m.Capacity-ls.configured), 1); err != nil {
			return nil, nil, nil, err
		}
	}
	aug, err := core.Augment(top, c.cfg.Penalty)
	if err != nil {
		return nil, nil, nil, err
	}
	endSolve := c.cfg.Obs.Span("controller.te_solve",
		obs.A("algorithm", c.cfg.TE.Name()),
		obs.A("demands", len(demands)))
	alloc, err := c.cfg.TE.Allocate(aug.Graph, demands)
	endSolve()
	if err != nil {
		return nil, nil, nil, err
	}
	if c.teSolves == nil {
		c.teSolves = c.cfg.Obs.Counter("controller_te_solves_total",
			"Flow-solver invocations inside TE allocations run by the controller.")
	}
	c.teSolves.Add(float64(alloc.Solver.Solves))
	dec, err := aug.Translate(graph.FlowResult{Value: alloc.Throughput, EdgeFlow: alloc.EdgeFlow})
	if err != nil {
		return nil, nil, nil, err
	}
	return alloc, dec, aug, nil
}
