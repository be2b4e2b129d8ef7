package repro

// integration_test.go drives the whole system end to end, crossing
// every package boundary a deployment would: per-link SNR observations
// → the control loop → the graph abstraction → an unmodified TE →
// transceiver reconfiguration.

import (
	"math"
	"testing"

	"repro/internal/bvt"
	"repro/internal/controller"
	"repro/internal/graph"
	"repro/internal/modulation"
	"repro/internal/qot"
	"repro/internal/snr"
	"repro/internal/te"

	"repro/rwc"
)

// TestEndToEndTelemetryControlLoop feeds per-link SNR samples into the
// controller and verifies the closed loop: demand growth triggers
// upgrades; an SNR dip triggers a flap, not an outage.
func TestEndToEndTelemetryControlLoop(t *testing.T) {
	// Physical topology: two links in a line.
	g := rwc.NewGraph()
	s, m, d := g.AddNode("s"), g.AddNode("m"), g.AddNode("d")
	g.AddEdge(rwc.Edge{From: s, To: m, Weight: 1})
	g.AddEdge(rwc.Edge{From: m, To: d, Weight: 1})

	ctrl, err := controller.New(g, 100, controller.Config{UpgradeHoldObservations: 1})
	if err != nil {
		t.Fatal(err)
	}

	feed := func(snrs [2]float64) {
		t.Helper()
		for li, v := range snrs {
			if _, err := ctrl.ObserveSNR(graph.EdgeID(li), v); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Round 1: healthy, demand fits.
	feed([2]float64{17, 17})
	plan, err := ctrl.Step([]te.Demand{{Src: s, Dst: d, Volume: 80}})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Orders) != 0 || plan.Decision.Value < 79.9 {
		t.Fatalf("round 1: %d orders, shipped %v", len(plan.Orders), plan.Decision.Value)
	}

	// Round 2: demand outgrows static capacity → upgrades via the
	// abstraction.
	feed([2]float64{17, 17})
	plan, err = ctrl.Step([]te.Demand{{Src: s, Dst: d, Volume: 180}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.Decision.Value-180) > 1e-6 {
		t.Fatalf("round 2 shipped %v", plan.Decision.Value)
	}
	upgrades := 0
	for _, o := range plan.Orders {
		if o.Kind == controller.OrderUpgrade {
			upgrades++
		}
	}
	if upgrades != 2 {
		t.Fatalf("round 2 upgrades = %d", upgrades)
	}

	// Round 3: SNR collapse on link 0 → flap to 50, not darkness.
	feed([2]float64{4.5, 17})
	plan, err = ctrl.Step([]te.Demand{{Src: s, Dst: d, Volume: 180}})
	if err != nil {
		t.Fatal(err)
	}
	flapped := false
	for _, o := range plan.Orders {
		if o.Kind == controller.OrderForcedDowngrade && o.To == 50 {
			flapped = true
		}
	}
	if !flapped {
		t.Fatalf("round 3: no flap in %+v", plan.Orders)
	}
	if plan.Decision.Value < 49.9 {
		t.Fatalf("round 3: degraded link shipped only %v", plan.Decision.Value)
	}
}

// TestEndToEndBVTExecutesControllerOrders attaches transceivers to the
// controller's links and executes a full scenario through the drivers,
// cross-checking configured capacities against device state.
func TestEndToEndBVTExecutesControllerOrders(t *testing.T) {
	g := rwc.NewGraph()
	s, d := g.AddNode("s"), g.AddNode("d")
	g.AddEdge(rwc.Edge{From: s, To: d, Weight: 1})

	ctrl, err := controller.New(g, 100, controller.Config{UpgradeHoldObservations: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := bvt.New(bvt.Config{InitialMode: 100, ChannelSNRdB: 17, HotCapable: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	drv := bvt.NewDriver(tr, nil)

	// Demand growth → upgrade order → device change.
	if _, err := ctrl.ObserveSNR(0, 17); err != nil {
		t.Fatal(err)
	}
	plan, err := ctrl.Step([]te.Demand{{Src: s, Dst: d, Volume: 200}})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range plan.Orders {
		if o.To == 0 {
			continue
		}
		if _, err := drv.ChangeModulation(o.To, bvt.MethodHot); err != nil {
			t.Fatal(err)
		}
	}
	mode, ok := tr.Mode()
	if !ok {
		t.Fatal("device mode unknown")
	}
	cap0, err := ctrl.Configured(0)
	if err != nil {
		t.Fatal(err)
	}
	if modulation.Gbps(mode.Capacity) != cap0 {
		t.Fatalf("device at %v, controller believes %v", mode.Capacity, cap0)
	}
	if !tr.LinkUp() {
		t.Fatal("device down after executing the plan")
	}
}

// TestQoTGroundsTheFleet cross-checks the two SNR sources: the QoT
// budget for a typical long-haul length should land inside the
// calibrated fleet prior's ±2σ band, tying the synthetic dataset to
// physics.
func TestQoTGroundsTheFleet(t *testing.T) {
	prior := snr.DefaultFiberParams()
	q := qot.Default()
	// Typical long-haul lengths (the fleet prior is calibrated to the
	// paper's continental backbone, dominated by 1000+ km routes).
	for _, km := range []float64{1000, 1600, 2400} {
		v, err := q.SNRdB(km)
		if err != nil {
			t.Fatal(err)
		}
		lo := prior.BaselineMeandB - 2*prior.BaselineStddB
		hi := prior.BaselineMeandB + 2*prior.BaselineStddB
		if v < lo || v > hi {
			t.Fatalf("QoT(%v km) = %v dB outside fleet prior band [%v, %v]", km, v, lo, hi)
		}
	}
}
