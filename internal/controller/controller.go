// Package controller implements the operational control loop the paper
// sketches but leaves implicit: a centralized WAN controller that
// ingests per-link SNR telemetry, maintains the dynamic-capacity
// topology, periodically re-runs an unmodified TE algorithm through the
// §4 graph abstraction, and turns the TE output into transceiver
// reconfiguration orders.
//
// Every decision — forced downgrades, restores, which headroom is
// offered to the TE, which upgrades commit — is internal/gate's, the
// stage the WAN simulator's dynamic policy runs too. The controller maps
// each edge to one wavelength (the paper's 1:1) and turns on the
// safeguards a deployment needs (see the gate): hold-down, a downgrade
// margin, restores to the initial capacity, pinned flows (§4.2(i)),
// flap damping and a change budget. It adds consistent updates
// (§4.2(ii)): a three-state plan — reroute away from the links being
// re-modulated, reconfigure, converge — so no packet crosses a link
// mid-change.
package controller

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/graph"
	"repro/internal/modulation"
	"repro/internal/obs"
	"repro/internal/te"
)

// OrderKind distinguishes reconfiguration causes.
type OrderKind = gate.Kind

const (
	// OrderForcedDowngrade is an SNR-driven flap to a lower rung (the
	// availability mechanism of §2.2).
	OrderForcedDowngrade = gate.ForcedDowngrade
	// OrderUpgrade is a capacity increase: TE-decided, or a restore.
	OrderUpgrade = gate.Upgrade
)

// DampingConfig tunes capacity-flap damping (see gate.DampingConfig).
type DampingConfig = gate.DampingConfig

// Order is one modulation change the controller wants executed.
type Order struct {
	Edge     graph.EdgeID
	Kind     OrderKind
	From, To modulation.Gbps
}

// Plan is the output of one control-loop iteration.
type Plan struct {
	// Orders lists modulation changes: forced downgrades and restores
	// first, then the TE-decided upgrades.
	Orders []Order
	// Allocation is the TE result on the augmented topology.
	Allocation *te.Allocation
	// Decision is the translated capacity/flow decision.
	Decision *core.Decision
	// Verdicts records, indexed by edge ID, what the decision gate
	// concluded this Step.
	Verdicts []gate.Verdict
	// EstimatedDisruption is Σ over orders of (the order's link
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

// Controller is the control loop state.
type Controller struct {
	cfg  Config
	g    *graph.Graph // physical topology
	gate *gate.Gate
	// conf is the configured capacity per edge: one wavelength per
	// edge, so edge ID = channel = fiber in the gate.
	conf []modulation.Gbps
	// flow is the last TE flow per edge, feeding the penalty function
	// and the disruption estimate.
	flow []float64
	// teSolves is the per-solve work counter, registered by the first
	// TE run.
	teSolves *obs.Counter
}

// New builds a controller over a physical topology whose edges start at
// the given capacity (typically 100 Gbps), which is also the capacity a
// degraded link is restored to, with unknown (optimistic) SNR. New sets
// every edge capacity in g to initial; the configured state is then
// Configured's.
func New(g *graph.Graph, initial modulation.Gbps, cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if g == nil {
		return nil, fmt.Errorf("controller: nil graph")
	}
	initTh, err := cfg.Ladder.ThresholdFor(initial)
	if err != nil {
		return nil, fmt.Errorf("controller: initial capacity %v not in ladder", initial)
	}
	n := g.NumEdges()
	c := &Controller{cfg: cfg, g: g, conf: make([]modulation.Gbps, n), flow: make([]float64, n)}
	fiberOf := make([]int, n)
	for e := range fiberOf {
		fiberOf[e] = e
		c.conf[e] = initial
		g.SetCapacity(graph.EdgeID(e), float64(initial))
	}
	c.gate, err = gate.New(gate.Settings{
		Ladder:   cfg.Ladder,
		Penalty:  cfg.Penalty,
		Hold:     cfg.UpgradeHoldObservations,
		MargindB: cfg.DowngradeMargindB,
		Floor:    initial,
	}, g, fiberOf, 1, c.conf)
	if err != nil {
		return nil, err
	}
	// Until telemetry arrives, assume every link is healthy at its
	// configured rung (threshold plus the safety margin); the first
	// real observation overwrites this.
	for e := range fiberOf {
		c.gate.Observe(e, initTh+cfg.DowngradeMargindB)
	}
	return c, nil
}

// Configured returns the configured capacity of an edge.
func (c *Controller) Configured(id graph.EdgeID) (modulation.Gbps, error) {
	if !c.g.HasEdge(id) {
		return 0, fmt.Errorf("controller: unknown edge %d", int(id))
	}
	return c.conf[id], nil
}

// ObserveSNR ingests one telemetry sample for an edge and updates the
// hysteresis state. It returns the forced-downgrade order the sample
// triggers, if any (the caller decides when to execute it; Step also
// collects pending downgrades).
func (c *Controller) ObserveSNR(id graph.EdgeID, snrdB float64) (*Order, error) {
	if !c.g.HasEdge(id) {
		return nil, fmt.Errorf("controller: unknown edge %d", int(id))
	}
	hold, reset := c.gate.Observe(int(id), snrdB)
	if hold == c.cfg.UpgradeHoldObservations {
		// Hysteresis transition: the link just qualified to offer its
		// upgrade headroom to TE.
		c.cfg.Obs.Counter("controller_hysteresis_qualified_total", //nolint:seriesname // cold: a hysteresis transition, not a sample
			"Links whose SNR sustained a higher rung long enough to offer the upgrade to TE.").Inc()
		c.cfg.Obs.Event("controller.hysteresis_qualified",
			obs.A("edge", int(id)),
			obs.A("snr_db", snrdB),
			obs.A("hold", hold))
	}
	if reset {
		c.cfg.Obs.Event("controller.hysteresis_reset",
			obs.A("edge", int(id)),
			obs.A("snr_db", snrdB))
	}
	if to := c.gate.Feasible(int(id)); to < c.conf[id] {
		return &Order{Edge: id, Kind: OrderForcedDowngrade, From: c.conf[id], To: to}, nil
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
		if float64(c.conf[id])-c.gate.Pinned[id] < volume {
			return fmt.Errorf("controller: edge %d lacks %v Gbps for pinned flow", int(id), volume)
		}
	}
	for _, id := range p.Edges {
		c.gate.Pinned[id] += volume
	}
	return nil
}

// UnpinAll releases every pinned flow.
func (c *Controller) UnpinAll() { clear(c.gate.Pinned) }

// EnableDamping turns on flap damping with the given configuration.
// Must be called before the first Step.
func (c *Controller) EnableDamping(d DampingConfig) { c.gate.EnableDamping(d) }

// SetMaxChangesPerRound caps the number of TE-decided upgrades executed
// per Step (0 = unlimited). Forced downgrades and restores are never
// capped. When the TE wants more upgrades than the budget, the ones
// carrying the most new traffic win.
func (c *Controller) SetMaxChangesPerRound(n int) { c.gate.Budget = n }

// Suppressed reports whether upgrades on the edge are currently damped.
func (c *Controller) Suppressed(id graph.EdgeID) bool { return c.gate.Suppressed(int(id)) }

// Step runs one control-loop iteration against the given demands:
// forced downgrades and restores are applied, the augmented topology is
// built from hysteresis-qualified headroom, the TE runs, and the
// translation becomes upgrade orders. The returned plan has already
// been applied to the controller's configured state.
func (c *Controller) Step(demands []te.Demand) (*Plan, error) {
	endStep := c.cfg.Obs.Span("controller.step")
	defer endStep()
	plan := &Plan{}
	orders, err := c.gate.Settle(c.flow)
	if err != nil {
		return nil, err
	}
	c.record(plan, orders)
	// Run the unmodified TE; while the change budget cuts its upgrades,
	// run it again on the upgrades kept (the first flow is infeasible
	// without the dropped ones).
	for {
		if plan.Allocation, plan.Decision, err = c.solve(demands); err != nil {
			return nil, err
		}
		candidates := len(plan.Decision.Changes)
		cut, err := c.gate.Cut(plan.Decision)
		if err != nil {
			return nil, err
		}
		if !cut {
			break
		}
		c.cfg.Obs.Counter("controller_budget_reruns_total", //nolint:seriesname // cold: only when the change budget forces a re-run
			"TE re-runs forced by the per-round change budget.").Inc()
		c.cfg.Obs.Event("controller.change_budget",
			obs.A("candidates", candidates),
			obs.A("kept", c.gate.Budget),
			obs.A("budget", c.gate.Budget))
	}
	c.record(plan, c.gate.Commit(plan.Decision))
	plan.Verdicts = slices.Clone(c.gate.Verdicts)
	copy(c.flow, plan.Decision.EdgeFlow)
	c.cfg.Obs.Logger().Debug("control step complete",
		"orders", len(plan.Orders),
		"throughput_gbps", plan.Decision.Value,
		"est_disrupted_gbps_sec", plan.EstimatedDisruption)
	return plan, nil
}

// record adds the gate's orders to the plan, emits them, and charges
// each its link's traffic × downtime: every order disrupts, restores
// and forced downgrades included (the WAN simulator counts upgrades
// only).
func (c *Controller) record(plan *Plan, orders []gate.Order) {
	for _, o := range orders {
		ord := Order{Edge: graph.EdgeID(o.Channel), Kind: o.Kind, From: o.From, To: o.To}
		plan.Orders = append(plan.Orders, ord)
		c.emitOrder(ord)
		plan.EstimatedDisruption += c.flow[o.Channel] * c.cfg.ChangeDowntime.Seconds()
	}
}

// solve runs the TE on the gate's augmented graph and translates the
// result.
func (c *Controller) solve(demands []te.Demand) (*te.Allocation, *core.Decision, error) {
	endSolve := c.cfg.Obs.Span("controller.te_solve",
		obs.A("algorithm", c.cfg.TE.Name()),
		obs.A("demands", len(demands)))
	alloc, err := c.cfg.TE.Allocate(c.gate.Aug.G, demands)
	endSolve()
	if err != nil {
		return nil, nil, err
	}
	if c.teSolves == nil {
		c.teSolves = c.cfg.Obs.Counter("controller_te_solves_total",
			"Flow-solver invocations inside TE allocations run by the controller.")
	}
	c.teSolves.Add(float64(alloc.Solver.Solves))
	dec := &core.Decision{}
	if err := c.gate.Aug.TranslateInto(dec, graph.FlowResult{Value: alloc.Throughput, EdgeFlow: alloc.EdgeFlow}); err != nil {
		return nil, nil, err
	}
	return alloc, dec, nil
}
