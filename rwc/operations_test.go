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
