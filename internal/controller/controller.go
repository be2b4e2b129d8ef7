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
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/graph"
	"repro/internal/modulation"
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
	Edge graph.EdgeID
	Kind OrderKind
	To   modulation.Gbps
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
	// margin (default 0.5 dB; negative is rejected).
	DowngradeMargindB float64
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
	return c
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
	// A negative margin would keep a link configured above what its
	// SNR carries.
	if m := cfg.DowngradeMargindB; !(m >= 0) || math.IsInf(m, 0) {
		return nil, fmt.Errorf("controller: downgrade margin %v dB is not a finite non-negative margin", m)
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
// collects pending downgrades). A non-finite sample is an error and
// leaves the state untouched.
func (c *Controller) ObserveSNR(id graph.EdgeID, snrdB float64) (*Order, error) {
	if !c.g.HasEdge(id) {
		return nil, fmt.Errorf("controller: unknown edge %d", int(id))
	}
	if math.IsNaN(snrdB) || math.IsInf(snrdB, 0) {
		return nil, fmt.Errorf("controller: edge %d SNR %v dB is not finite", int(id), snrdB)
	}
	c.gate.Observe(int(id), snrdB)
	if to := c.gate.Feasible(int(id)); to < c.conf[id] {
		return &Order{Edge: id, Kind: OrderForcedDowngrade, To: to}, nil
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
	if !(volume > 0) || math.IsInf(volume, 0) {
		return fmt.Errorf("controller: pinned flow needs a positive finite volume, got %v", volume)
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

// Step runs one control-loop iteration against the given demands: one
// gate round — forced downgrades and restores, the TE on the augmented
// topology built from hysteresis-qualified headroom (re-run when the
// change budget cuts its upgrades), and the upgrade orders. The
// returned plan has already been applied to the controller's configured
// state.
func (c *Controller) Step(demands []te.Demand) (*Plan, error) {
	plan := &Plan{Decision: &core.Decision{}}
	out, err := c.gate.Round(c.cfg.TE, demands, c.flow, plan.Decision)
	if err != nil {
		return nil, err
	}
	plan.Allocation = out.Alloc
	for _, o := range out.Orders {
		plan.Orders = append(plan.Orders, Order{Edge: graph.EdgeID(o.Channel), Kind: o.Kind, To: o.To})
	}
	plan.Verdicts = slices.Clone(c.gate.Verdicts)
	copy(c.flow, plan.Decision.EdgeFlow)
	return plan, nil
}
