package controller

import (
	"math"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/modulation"
	"repro/internal/obs"
	"repro/internal/te"
)

// lineNet builds s -> m -> d with one wavelength per directed edge.
func lineNet(t *testing.T) (*graph.Graph, [3]graph.NodeID) {
	t.Helper()
	g := graph.New()
	s, m, d := g.AddNode("s"), g.AddNode("m"), g.AddNode("d")
	g.AddEdge(graph.Edge{From: s, To: m, Weight: 1})
	g.AddEdge(graph.Edge{From: m, To: d, Weight: 1})
	return g, [3]graph.NodeID{s, m, d}
}

func newController(t *testing.T, g *graph.Graph, cfg Config) *Controller {
	t.Helper()
	c, err := New(g, 100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewInitializesCapacities(t *testing.T) {
	g, _ := lineNet(t)
	c := newController(t, g, Config{})
	for _, e := range g.Edges() {
		if e.Capacity != 100 {
			t.Fatalf("edge %d capacity %v", e.ID, e.Capacity)
		}
		cap, err := c.Configured(e.ID)
		if err != nil || cap != 100 {
			t.Fatalf("configured = %v, %v", cap, err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 100, Config{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	g, _ := lineNet(t)
	if _, err := New(g, 73, Config{}); err == nil {
		t.Fatal("off-ladder initial capacity accepted")
	}
}

func TestConfiguredUnknownEdge(t *testing.T) {
	g, _ := lineNet(t)
	c := newController(t, g, Config{})
	if _, err := c.Configured(99); err == nil {
		t.Fatal("unknown edge accepted")
	}
}

func TestObserveSNRTriggersDowngradeOrder(t *testing.T) {
	g, _ := lineNet(t)
	c := newController(t, g, Config{})
	// 4.5 dB is below the 100G threshold but supports 50G.
	o, err := c.ObserveSNR(0, 4.5)
	if err != nil {
		t.Fatal(err)
	}
	if o == nil || o.Kind != OrderForcedDowngrade || o.From != 100 || o.To != 50 {
		t.Fatalf("order = %+v", o)
	}
	// Healthy SNR: no order.
	o, err = c.ObserveSNR(0, 15)
	if err != nil || o != nil {
		t.Fatalf("order = %+v, err = %v", o, err)
	}
	if _, err := c.ObserveSNR(99, 10); err == nil {
		t.Fatal("unknown edge accepted")
	}
}

func TestObserveSNRLossOfLight(t *testing.T) {
	g, _ := lineNet(t)
	c := newController(t, g, Config{})
	o, err := c.ObserveSNR(0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if o == nil || o.To != 0 {
		t.Fatalf("loss of light order = %+v", o)
	}
}

func TestStepForcedDowngradeAndRelight(t *testing.T) {
	g, n := lineNet(t)
	c := newController(t, g, Config{})
	demands := []te.Demand{{Src: n[0], Dst: n[2], Volume: 80}}

	// SNR collapse on edge 0.
	if _, err := c.ObserveSNR(0, 4.5); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ObserveSNR(1, 15); err != nil {
		t.Fatal(err)
	}
	plan, err := c.Step(demands)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, o := range plan.Orders {
		if o.Edge == 0 && o.Kind == OrderForcedDowngrade && o.To == 50 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no forced downgrade in %+v", plan.Orders)
	}
	// The link still carries 50 Gbps (the availability win).
	if plan.Decision.Value < 49 {
		t.Fatalf("shipped %v through degraded link, want ≈ 50", plan.Decision.Value)
	}
	cap0, _ := c.Configured(0)
	if cap0 != 50 {
		t.Fatalf("configured = %v", cap0)
	}

	// Recovery: dark/degraded link relights at full feasible rate.
	if _, err := c.ObserveSNR(0, 16.5); err != nil {
		t.Fatal(err)
	}
	plan, err = c.Step(demands)
	if err != nil {
		t.Fatal(err)
	}
	cap0, _ = c.Configured(0)
	if cap0 < 100 {
		t.Fatalf("after recovery configured = %v", cap0)
	}
	_ = plan
}

func TestStepUpgradeNeedsHysteresis(t *testing.T) {
	g, n := lineNet(t)
	c := newController(t, g, Config{UpgradeHoldObservations: 3})
	demands := []te.Demand{{Src: n[0], Dst: n[2], Volume: 180}}

	// One good observation is not enough.
	for _, e := range g.Edges() {
		if _, err := c.ObserveSNR(e.ID, 17); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := c.Step(demands)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range plan.Orders {
		if o.Kind == OrderUpgrade {
			t.Fatalf("upgrade after one observation: %+v", o)
		}
	}
	if plan.Decision.Value > 100+1e-6 {
		t.Fatalf("shipped %v without upgrades", plan.Decision.Value)
	}

	// Two more good observations qualify the headroom.
	for i := 0; i < 2; i++ {
		for _, e := range g.Edges() {
			if _, err := c.ObserveSNR(e.ID, 17); err != nil {
				t.Fatal(err)
			}
		}
	}
	plan, err = c.Step(demands)
	if err != nil {
		t.Fatal(err)
	}
	upgrades := 0
	for _, o := range plan.Orders {
		if o.Kind == OrderUpgrade {
			upgrades++
		}
	}
	if upgrades != 2 {
		t.Fatalf("upgrades = %d, want both line edges", upgrades)
	}
	if math.Abs(plan.Decision.Value-180) > 1e-6 {
		t.Fatalf("shipped %v after upgrades", plan.Decision.Value)
	}
	// 17 dB − 0.5 margin clears the 15.5 dB 200G rung.
	cap0, _ := c.Configured(0)
	if cap0 != 200 {
		t.Fatalf("configured after upgrade = %v", cap0)
	}
}

func TestStepNoUpgradeWithoutDemand(t *testing.T) {
	g, n := lineNet(t)
	c := newController(t, g, Config{UpgradeHoldObservations: 1})
	for _, e := range g.Edges() {
		if _, err := c.ObserveSNR(e.ID, 17); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := c.Step([]te.Demand{{Src: n[0], Dst: n[2], Volume: 40}})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range plan.Orders {
		if o.Kind == OrderUpgrade {
			t.Fatalf("unnecessary upgrade: %+v", o)
		}
	}
}

func TestStepHysteresisResetsOnDip(t *testing.T) {
	g, _ := lineNet(t)
	o := obs.New("test")
	c := newController(t, g, Config{Obs: o, UpgradeHoldObservations: 3})
	qualified := func() int {
		n := 0
		for _, ev := range o.Trace.Events() {
			if ev.Name == "controller.hysteresis_qualified" {
				n++
			}
		}
		return n
	}
	// Two good, one bad (7 dB is below the 125G rung's 8.5+0.5 dB),
	// two good: hold count must be 2 — not yet 3, and 3 one good
	// sample later.
	seq := []float64{17, 17, 7, 17, 17}
	for _, snr := range seq {
		if _, err := c.ObserveSNR(0, snr); err != nil {
			t.Fatal(err)
		}
	}
	if n := qualified(); n != 0 {
		t.Fatalf("hold count reached 3 across a dip (%d qualified events)", n)
	}
	if _, err := c.ObserveSNR(0, 17); err != nil {
		t.Fatal(err)
	}
	if n := qualified(); n != 1 {
		t.Fatalf("hold count was not 2 after the dip: one more sample gave %d qualified events, want 1", n)
	}
}

func TestPinFlowBlocksChanges(t *testing.T) {
	g, n := lineNet(t)
	c := newController(t, g, Config{UpgradeHoldObservations: 1})
	// Pin a 60 Gbps flow across both edges.
	p := graph.Path{Edges: []graph.EdgeID{0, 1}, Nodes: []graph.NodeID{n[0], n[1], n[2]}}
	if err := c.PinFlow(p, 60); err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if _, err := c.ObserveSNR(e.ID, 17); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := c.Step([]te.Demand{{Src: n[0], Dst: n[2], Volume: 180}})
	if err != nil {
		t.Fatal(err)
	}
	// Pinned links: no orders at all, and TE sees only 40 Gbps.
	if len(plan.Orders) != 0 {
		t.Fatalf("orders on pinned links: %+v", plan.Orders)
	}
	if plan.Decision.Value > 40+1e-6 {
		t.Fatalf("TE shipped %v over hidden capacity", plan.Decision.Value)
	}
	// Unpin: next step can upgrade (hysteresis persisted an extra
	// observation round).
	c.UnpinAll()
	for _, e := range g.Edges() {
		if _, err := c.ObserveSNR(e.ID, 17); err != nil {
			t.Fatal(err)
		}
	}
	plan, err = c.Step([]te.Demand{{Src: n[0], Dst: n[2], Volume: 180}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.Decision.Value-180) > 1e-6 {
		t.Fatalf("after unpin shipped %v", plan.Decision.Value)
	}
}

func TestPinFlowValidation(t *testing.T) {
	g, n := lineNet(t)
	c := newController(t, g, Config{})
	bad := graph.Path{Edges: []graph.EdgeID{1, 0}, Nodes: []graph.NodeID{n[0], n[1], n[2]}}
	if err := c.PinFlow(bad, 10); err == nil {
		t.Fatal("invalid path accepted")
	}
	p := graph.Path{Edges: []graph.EdgeID{0, 1}, Nodes: []graph.NodeID{n[0], n[1], n[2]}}
	if err := c.PinFlow(p, 0); err == nil {
		t.Fatal("zero volume accepted")
	}
	if err := c.PinFlow(p, 150); err == nil {
		t.Fatal("over-capacity pin accepted")
	}
	if err := c.PinFlow(p, 80); err != nil {
		t.Fatal(err)
	}
	// Second pin exceeding the remainder.
	if err := c.PinFlow(p, 30); err == nil {
		t.Fatal("pin beyond remaining capacity accepted")
	}
}

func TestDisruptionEstimateUsesTrafficAndDowntime(t *testing.T) {
	g, n := lineNet(t)
	c := newController(t, g, Config{UpgradeHoldObservations: 1, ChangeDowntime: 10 * time.Second})
	demands := []te.Demand{{Src: n[0], Dst: n[2], Volume: 80}}
	// Round 1: establish traffic (80 Gbps on both edges).
	for _, e := range g.Edges() {
		if _, err := c.ObserveSNR(e.ID, 17); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Step(demands); err != nil {
		t.Fatal(err)
	}
	// Round 2: demand grows; upgrades disrupt the 80 Gbps now riding
	// the links.
	for _, e := range g.Edges() {
		if _, err := c.ObserveSNR(e.ID, 17); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := c.Step([]te.Demand{{Src: n[0], Dst: n[2], Volume: 180}})
	if err != nil {
		t.Fatal(err)
	}
	// Two upgraded edges × 80 Gbps × 10 s = 1600.
	if math.Abs(plan.EstimatedDisruption-1600) > 1e-6 {
		t.Fatalf("disruption = %v, want 1600", plan.EstimatedDisruption)
	}
}

func TestConsistentStepNoChanges(t *testing.T) {
	g, n := lineNet(t)
	c := newController(t, g, Config{})
	cp, err := c.ConsistentStep([]te.Demand{{Src: n[0], Dst: n[2], Volume: 50}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.UpdatedEdges) != 0 {
		t.Fatalf("unexpected EU: %v", cp.UpdatedEdges)
	}
	if cp.Intermediate != cp.Final.Allocation {
		t.Fatal("no-change plan should reuse the final allocation")
	}
	if cp.IntermediateLoss != 0 {
		t.Fatalf("loss = %v", cp.IntermediateLoss)
	}
}

func TestConsistentStepReroutesAroundEU(t *testing.T) {
	// Diamond: two disjoint s->d paths. Upgrading the top path should
	// leave an intermediate state that still ships over the bottom.
	g := graph.New()
	s, a, b, d := g.AddNode("s"), g.AddNode("a"), g.AddNode("b"), g.AddNode("d")
	g.AddEdge(graph.Edge{From: s, To: a, Weight: 1}) // 0 top
	g.AddEdge(graph.Edge{From: a, To: d, Weight: 1}) // 1 top
	g.AddEdge(graph.Edge{From: s, To: b, Weight: 2}) // 2 bottom
	g.AddEdge(graph.Edge{From: b, To: d, Weight: 2}) // 3 bottom
	c := newController(t, g, Config{UpgradeHoldObservations: 1})
	for _, e := range g.Edges() {
		if _, err := c.ObserveSNR(e.ID, 17); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := c.ConsistentStep([]te.Demand{{Src: s, Dst: d, Volume: 250}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.UpdatedEdges) == 0 {
		t.Fatal("no upgrades planned at 250 Gbps demand")
	}
	// Intermediate state: EU removed, but the other path still carries
	// traffic.
	if cp.Intermediate.Throughput < 99 {
		t.Fatalf("intermediate throughput %v, want >= 100 via surviving path", cp.Intermediate.Throughput)
	}
	if cp.Final.Decision.Value < cp.Intermediate.Throughput-1e-6 {
		t.Fatal("final state ships less than intermediate")
	}
	if cp.IntermediateLoss < 0 {
		t.Fatal("negative loss")
	}
	// No intermediate flow touches an EU edge.
	updated := map[graph.EdgeID]bool{}
	for _, id := range cp.UpdatedEdges {
		updated[id] = true
	}
	for id, f := range cp.Intermediate.EdgeFlow {
		if updated[graph.EdgeID(id)] && f > 1e-9 {
			t.Fatalf("intermediate flow %v on updating edge %d", f, id)
		}
	}
}

// TestConsistentStepHidesPinnedCapacity: the intermediate TE sees what
// the final TE saw — configured capacity minus pinned — with EU
// removed. A pinned 60 Gbps leaves the bottom path 40 Gbps; once the
// upgraded top path goes dark for re-modulation, 40 Gbps is all the
// intermediate state can ship, not the bottom path's full 100.
func TestConsistentStepHidesPinnedCapacity(t *testing.T) {
	g := graph.New()
	s, a, b, d := g.AddNode("s"), g.AddNode("a"), g.AddNode("b"), g.AddNode("d")
	g.AddEdge(graph.Edge{From: s, To: a, Weight: 1}) // 0 top
	g.AddEdge(graph.Edge{From: a, To: d, Weight: 1}) // 1 top
	g.AddEdge(graph.Edge{From: s, To: b, Weight: 2}) // 2 bottom
	g.AddEdge(graph.Edge{From: b, To: d, Weight: 2}) // 3 bottom
	c := newController(t, g, Config{UpgradeHoldObservations: 1})
	if err := c.PinFlow(graph.Path{Nodes: []graph.NodeID{s, b, d}, Edges: []graph.EdgeID{2, 3}}, 60); err != nil {
		t.Fatal(err)
	}
	for _, id := range []graph.EdgeID{0, 1} {
		if _, err := c.ObserveSNR(id, 17); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := c.ConsistentStep([]te.Demand{{Src: s, Dst: d, Volume: 250}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.UpdatedEdges) != 2 || cp.UpdatedEdges[0] != 0 || cp.UpdatedEdges[1] != 1 {
		t.Fatalf("EU = %v, want the top path", cp.UpdatedEdges)
	}
	if math.Abs(cp.Final.Decision.Value-240) > 1e-6 {
		t.Fatalf("final shipped %v, want 200 (upgraded top) + 40 (unpinned bottom)", cp.Final.Decision.Value)
	}
	for _, id := range []graph.EdgeID{2, 3} {
		if f := cp.Intermediate.EdgeFlow[id]; f > 40+1e-6 {
			t.Fatalf("intermediate flow %v on edge %d, which has 40 Gbps left beside its pinned flow", f, id)
		}
	}
	if math.Abs(cp.IntermediateLoss-200) > 1e-6 {
		t.Fatalf("intermediate loss %v, want 200", cp.IntermediateLoss)
	}
}

func TestOrderKindString(t *testing.T) {
	if OrderForcedDowngrade.String() != "forced-downgrade" || OrderUpgrade.String() != "upgrade" {
		t.Fatal("order kind strings")
	}
	if OrderKind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

func TestStepIsDeterministic(t *testing.T) {
	run := func() []Order {
		g, n := lineNet(t)
		c := newController(t, g, Config{UpgradeHoldObservations: 1})
		for _, e := range g.Edges() {
			if _, err := c.ObserveSNR(e.ID, 17); err != nil {
				t.Fatal(err)
			}
		}
		plan, err := c.Step([]te.Demand{{Src: n[0], Dst: n[2], Volume: 150}})
		if err != nil {
			t.Fatal(err)
		}
		return plan.Orders
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("non-deterministic order count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// Integration: a multi-round life cycle on a ring with SNR churn.
func TestControllerLifecycleOnRing(t *testing.T) {
	g := graph.New()
	const n = 6
	g.AddNodes(n)
	for i := 0; i < n; i++ {
		g.AddEdge(graph.Edge{From: graph.NodeID(i), To: graph.NodeID((i + 1) % n), Weight: 1})
		g.AddEdge(graph.Edge{From: graph.NodeID((i + 1) % n), To: graph.NodeID(i), Weight: 1})
	}
	c := newController(t, g, Config{UpgradeHoldObservations: 2})
	demands := []te.Demand{
		{Src: 0, Dst: 3, Volume: 150},
		{Src: 1, Dst: 4, Volume: 60},
	}
	snrs := []float64{17, 17, 17, 5, 17, 17, 17, 17}
	for round := 0; round < len(snrs); round++ {
		for _, e := range g.Edges() {
			snr := 17.0
			if e.ID == 0 {
				snr = snrs[round] // edge 0 dips mid-run
			}
			if _, err := c.ObserveSNR(e.ID, snr); err != nil {
				t.Fatal(err)
			}
		}
		plan, err := c.Step(demands)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Invariant: configured capacities are always ladder rungs or 0.
		for _, e := range g.Edges() {
			cap, _ := c.Configured(e.ID)
			if cap != 0 {
				if _, ok := (modulation.Default()).ModeFor(cap); !ok {
					t.Fatalf("round %d: configured %v not on ladder", round, cap)
				}
			}
		}
		// Invariant: shipped never exceeds demand.
		if plan.Decision.Value > 210+1e-6 {
			t.Fatalf("round %d: overshipped %v", round, plan.Decision.Value)
		}
	}
}
