package rwc

import (
	"repro/internal/controller"
)

// Operational layer: the control loop. Together with the abstraction
// this is what a deployment runs: the controller ingests per-link SNR
// observations, steps the TE through the augmentation, and emits
// modulation orders.

type (
	// Controller is the SNR-adaptive control loop: SNR observations in,
	// modulation orders and flow assignments out.
	Controller = controller.Controller
	// ControllerConfig tunes hysteresis, margins, TE and penalties.
	ControllerConfig = controller.Config
	// Order is one modulation change the controller wants executed.
	Order = controller.Order
	// OrderKind distinguishes forced downgrades from TE upgrades.
	OrderKind = controller.OrderKind
	// Plan is one control-loop iteration's output.
	Plan = controller.Plan
	// ConsistentPlan is the three-state (§4.2) update plan.
	ConsistentPlan = controller.ConsistentPlan
)

// Order kinds.
const (
	// OrderForcedDowngrade is an SNR-driven capacity flap.
	OrderForcedDowngrade = controller.OrderForcedDowngrade
	// OrderUpgrade is a TE-decided capacity increase.
	OrderUpgrade = controller.OrderUpgrade
)

// NewController builds a control loop over a physical topology whose
// links start at the given capacity.
func NewController(g *Graph, initial Gbps, cfg ControllerConfig) (*Controller, error) {
	return controller.New(g, initial, cfg)
}
