package rwc

import (
	"context"

	"repro/internal/controller"
	"repro/internal/telemetry"
)

// Operational layer: the control loop and the telemetry feed. Together
// with the abstraction these are what a deployment runs: a telemetry
// collector streams per-link SNR, the controller ingests it, steps the
// TE through the augmentation, and emits modulation orders.

type (
	// Controller is the SNR-adaptive control loop: telemetry in,
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

type (
	// TelemetryServer streams per-link SNR samples to subscribers.
	TelemetryServer = telemetry.Server
	// TelemetryClient subscribes to a telemetry stream.
	TelemetryClient = telemetry.Client
	// TelemetrySample is one SNR observation on the wire.
	TelemetrySample = telemetry.Sample
)

// NewTelemetryServer creates a streaming server for the given link
// catalog.
func NewTelemetryServer(linkNames []string) *TelemetryServer {
	return telemetry.NewServer(linkNames)
}

// DialTelemetry subscribes to a telemetry server.
func DialTelemetry(ctx context.Context, addr string) (*TelemetryClient, error) {
	return telemetry.Dial(ctx, addr)
}
