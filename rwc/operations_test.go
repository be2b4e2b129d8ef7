package rwc_test

import (
	"testing"

	"repro/rwc"
)

func TestControllerThroughPublicAPI(t *testing.T) {
	g := rwc.NewGraph()
	s, d := g.AddNode("s"), g.AddNode("d")
	g.AddEdge(rwc.Edge{From: s, To: d, Weight: 1})
	ctrl, err := rwc.NewController(g, 100, rwc.ControllerConfig{UpgradeHoldObservations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.ObserveSNR(0, 17); err != nil {
		t.Fatal(err)
	}
	plan, err := ctrl.Step([]rwc.Demand{{Src: s, Dst: d, Volume: 150}})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Orders) != 1 || plan.Orders[0].Kind != rwc.OrderUpgrade {
		t.Fatalf("orders: %+v", plan.Orders)
	}
	cp, err := ctrl.ConsistentStep([]rwc.Demand{{Src: s, Dst: d, Volume: 150}})
	if err != nil {
		t.Fatal(err)
	}
	if cp.Final == nil {
		t.Fatal("consistent plan missing final state")
	}
}

func TestOpticalThroughPublicAPI(t *testing.T) {
	fibers := rwc.NewGraph()
	a, b := fibers.AddNode("a"), fibers.AddNode("b")
	fibers.AddEdge(rwc.Edge{From: a, To: b, Weight: 400})
	net, err := rwc.NewOpticalNetwork(fibers, rwc.OpticalConfig{Channels: 4})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := net.Provision(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if lp.Feasible < 175 {
		t.Fatalf("400 km feasible = %v", lp.Feasible)
	}
	top, mapping, err := net.ToTopology(10)
	if err != nil {
		t.Fatal(err)
	}
	if top.G.NumEdges() != 1 || len(mapping) != 1 {
		t.Fatal("topology export wrong")
	}
	if rwc.DefaultQoT().SpanKm != 80 {
		t.Fatal("default QoT params wrong")
	}
}
