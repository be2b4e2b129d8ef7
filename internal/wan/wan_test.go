package wan

import (
	"math"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/te"
)

func rngNew(seed uint64) *rng.Source { return rng.New(seed) }

func TestAbileneShape(t *testing.T) {
	n := Abilene(4)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.G.NumNodes() != 11 {
		t.Fatalf("nodes = %d", n.G.NumNodes())
	}
	if n.G.NumEdges() != 28 { // 14 adjacencies × 2 directions
		t.Fatalf("edges = %d", n.G.NumEdges())
	}
	if n.NumFibers != 14 {
		t.Fatalf("fibers = %d", n.NumFibers)
	}
	// Both directions of an adjacency share a fiber.
	for _, e := range n.G.Edges() {
		found := false
		for _, e2 := range n.G.Edges() {
			if e2.From == e.To && e2.To == e.From && n.FiberOf[e.ID] == n.FiberOf[e2.ID] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("edge %d has no reverse on the same fiber", e.ID)
		}
	}
	// Connected.
	if len(n.G.Reachable(0)) != 11 {
		// Capacities are zero pre-simulation; Reachable skips
		// zero-capacity edges, so set them first.
		g := n.G.Clone()
		for _, e := range g.Edges() {
			g.SetCapacity(e.ID, 1)
		}
		if len(g.Reachable(0)) != 11 {
			t.Fatal("Abilene not connected")
		}
	}
}

func TestUSBackboneShape(t *testing.T) {
	n := USBackbone(4)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.G.NumNodes() != 25 {
		t.Fatalf("nodes = %d", n.G.NumNodes())
	}
	g := n.G.Clone()
	for _, e := range g.Edges() {
		g.SetCapacity(e.ID, 1)
	}
	if len(g.Reachable(0)) != 25 {
		t.Fatal("USBackbone not connected")
	}
}

func TestRandomBackbone(t *testing.T) {
	n, err := RandomBackbone(15, 10, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	g := n.G.Clone()
	for _, e := range g.Edges() {
		g.SetCapacity(e.ID, 1)
	}
	if len(g.Reachable(0)) != 15 {
		t.Fatal("random backbone not connected")
	}
	// Ring + chords: 15 + 10 adjacencies.
	if n.NumFibers != 25 {
		t.Fatalf("fibers = %d", n.NumFibers)
	}
	if _, err := RandomBackbone(2, 0, 4, 1); err == nil {
		t.Fatal("2-node backbone accepted")
	}
	if _, err := RandomBackbone(5, -1, 4, 1); err == nil {
		t.Fatal("negative chords accepted")
	}
}

func TestRandomBackboneDeterministic(t *testing.T) {
	a, _ := RandomBackbone(12, 8, 4, 42)
	b, _ := RandomBackbone(12, 8, 4, 42)
	if a.G.NumEdges() != b.G.NumEdges() {
		t.Fatal("random backbone not deterministic")
	}
	for i, e := range a.G.Edges() {
		if b.G.Edge(graph.EdgeID(i)) != e {
			t.Fatal("edges differ across same-seed builds")
		}
	}
}

func TestGravityTraffic(t *testing.T) {
	n := Abilene(4)
	demands, err := GravityTraffic(n, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, d := range demands {
		if d.Volume <= 0 {
			t.Fatal("non-positive demand")
		}
		if d.Src == d.Dst {
			t.Fatal("self demand")
		}
		total += d.Volume
	}
	if math.Abs(total-1000) > 1e-6 {
		t.Fatalf("total = %v, want 1000", total)
	}
	// Gravity: NYC (weight 20) ↔ LA (weight 13) should be the largest.
	top := LargestDemands(demands, 1)[0]
	nyName := n.G.NodeName(top.Src) + n.G.NodeName(top.Dst)
	if nyName != "NewYorkLosAngeles" && nyName != "LosAngelesNewYork" {
		t.Fatalf("largest demand is %s", nyName)
	}
}

func TestGravityTrafficErrors(t *testing.T) {
	n := Abilene(4)
	if _, err := GravityTraffic(n, -1); err == nil {
		t.Fatal("negative volume accepted")
	}
	zero := Abilene(4)
	for i := range zero.NodeWeights {
		zero.NodeWeights[i] = 0
	}
	if _, err := GravityTraffic(zero, 100); err == nil {
		t.Fatal("all-zero weights accepted")
	}
}

func TestTopKDemands(t *testing.T) {
	d := []te.Demand{{Volume: 1}, {Volume: 5}, {Volume: 3}}
	top := LargestDemands(d, 2)
	if len(top) != 2 || top[0].Volume != 5 || top[1].Volume != 3 {
		t.Fatalf("top-k wrong: %+v", top)
	}
	if LargestDemands(d, -1) != nil {
		t.Fatal("k<0 should be nil")
	}
	if LargestDemands(nil, 2) != nil {
		t.Fatal("no demands should be nil")
	}
}

func testSimConfig(t *testing.T) SimConfig {
	t.Helper()
	return SimConfig{
		Net:            Abilene(2),
		Rounds:         12,
		RoundInterval:  6 * time.Hour,
		Seed:           99,
		DemandFraction: 0.5,
	}
}

func TestSimulationRunsAllPolicies(t *testing.T) {
	sim, err := NewSimulation(testSimConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{PolicyStatic100, PolicyStaticMax, PolicyDynamic} {
		res, err := sim.Run(p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if len(res.Rounds) != 12 {
			t.Fatalf("%v: %d rounds", p, len(res.Rounds))
		}
		for _, m := range res.Rounds {
			if m.ShippedGbps < 0 || m.ShippedGbps > m.OfferedGbps+1e-6 {
				t.Fatalf("%v round %d: shipped %v of %v", p, m.Round, m.ShippedGbps, m.OfferedGbps)
			}
			if m.SatisfiedFraction() < 0 || m.SatisfiedFraction() > 1+1e-9 {
				t.Fatalf("%v: satisfied fraction %v", p, m.SatisfiedFraction())
			}
			if m.CapacityGbps < 0 {
				t.Fatalf("%v: negative capacity", p)
			}
		}
	}
}

func TestSimulationDeterministic(t *testing.T) {
	cfg := testSimConfig(t)
	a, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := a.Run(PolicyDynamic)
	rb, _ := b.Run(PolicyDynamic)
	for i := range ra.Rounds {
		if ra.Rounds[i] != rb.Rounds[i] {
			t.Fatalf("round %d differs: %+v vs %+v", i, ra.Rounds[i], rb.Rounds[i])
		}
	}
}

func TestDynamicBeatsStaticUnderLoad(t *testing.T) {
	// The headline throughput simulation: with demand exceeding static
	// capacity, dynamic capacities ship more.
	cfg := testSimConfig(t)
	cfg.DemandFraction = 1.2 // oversubscribed vs static 100G
	cfg.Rounds = 8
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	static, err := sim.Run(PolicyStatic100)
	if err != nil {
		t.Fatal(err)
	}
	dynamic, err := sim.Run(PolicyDynamic)
	if err != nil {
		t.Fatal(err)
	}
	if dynamic.TotalShipped() <= static.TotalShipped() {
		t.Fatalf("dynamic %v <= static %v", dynamic.TotalShipped(), static.TotalShipped())
	}
	// The gain should be substantial (the fleet can roughly double
	// capacity on most links).
	gain := dynamic.TotalShipped() / static.TotalShipped()
	if gain < 1.1 {
		t.Fatalf("dynamic/static = %v, want > 1.1", gain)
	}
}

func TestDynamicChangesOnlyWhenNeeded(t *testing.T) {
	// With tiny demand the TE should not pay for upgrades.
	cfg := testSimConfig(t)
	cfg.DemandFraction = 0.05
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(PolicyDynamic)
	if err != nil {
		t.Fatal(err)
	}
	upgrades := 0
	for _, m := range res.Rounds {
		upgrades += m.Changes
	}
	// Forced downgrades from SNR dips can still occur; upgrades should
	// be rare. Allow a small number of changes overall.
	if upgrades > cfg.Rounds*4 {
		t.Fatalf("%d changes at 5%% load", upgrades)
	}
}

func TestStaticMaxDarkerThanStatic100(t *testing.T) {
	// Aggressive static configuration must suffer at least as many
	// dark-link rounds (Figure 3a's lesson). Use a long horizon to see
	// dips.
	cfg := testSimConfig(t)
	cfg.Rounds = 60
	cfg.RoundInterval = 12 * time.Hour
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s100, err := sim.Run(PolicyStatic100)
	if err != nil {
		t.Fatal(err)
	}
	sMax, err := sim.Run(PolicyStaticMax)
	if err != nil {
		t.Fatal(err)
	}
	dark100, darkMax := 0, 0
	for i := range s100.Rounds {
		dark100 += s100.Rounds[i].LinksDark
		darkMax += sMax.Rounds[i].LinksDark
	}
	if darkMax < dark100 {
		t.Fatalf("static-max darker count %d < static-100 %d", darkMax, dark100)
	}
	// And it should carry more traffic in good rounds.
	if sMax.TotalShipped() < s100.TotalShipped() {
		t.Fatalf("static-max shipped less than static-100 under 0.5 load")
	}
}

func TestSimulationValidation(t *testing.T) {
	cfg := testSimConfig(t)
	cfg.Rounds = 0
	if _, err := NewSimulation(cfg); err == nil {
		t.Fatal("0 rounds accepted")
	}
	cfg = testSimConfig(t)
	cfg.Net = nil
	if _, err := NewSimulation(cfg); err == nil {
		t.Fatal("nil network accepted")
	}
	cfg = testSimConfig(t)
	cfg.DemandFraction = -1
	if _, err := NewSimulation(cfg); err == nil {
		t.Fatal("negative demand accepted")
	}
}

func TestRunUnknownPolicy(t *testing.T) {
	sim, err := NewSimulation(testSimConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(Policy(9)); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, p := range []Policy{PolicyStatic100, PolicyStaticMax, PolicyDynamic} {
		if p.String() == "" {
			t.Fatal("empty policy string")
		}
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy string empty")
	}
}

func TestPerturbTraffic(t *testing.T) {
	d := []te.Demand{{Src: 0, Dst: 1, Volume: 10}, {Src: 1, Dst: 0, Volume: 20}}
	buf := make([]te.Demand, len(d))
	out := PerturbTrafficInto(buf, d, 0.2, rngNew(5))
	if len(out) != 2 || &out[0] != &buf[0] {
		t.Fatal("result is not dst")
	}
	for i := range out {
		if out[i].Volume <= 0 {
			t.Fatal("non-positive perturbed volume")
		}
		if out[i].Volume == d[i].Volume {
			t.Fatal("no perturbation applied")
		}
		if out[i].Src != d[i].Src || out[i].Dst != d[i].Dst {
			t.Fatal("endpoints changed")
		}
	}
	if d[0].Volume != 10 || d[1].Volume != 20 {
		t.Fatal("input demands modified")
	}
	// Same source state, same draws.
	again := PerturbTrafficInto(make([]te.Demand, len(d)), d, 0.2, rngNew(5))
	for i := range again {
		if again[i] != out[i] {
			t.Fatalf("demand %d: %+v from one seed, %+v from the same seed again", i, out[i], again[i])
		}
	}
	// Sigma 0: LogNormal(0,0)=1, volumes unchanged.
	same := PerturbTrafficInto(buf, d, 0, rngNew(5))
	for i := range same {
		if same[i].Volume != d[i].Volume {
			t.Fatal("sigma=0 changed volumes")
		}
	}
}

func TestMetricsHelpers(t *testing.T) {
	m := RoundMetrics{OfferedGbps: 100, ShippedGbps: 80}
	if m.SatisfiedFraction() != 0.8 {
		t.Fatalf("satisfied = %v", m.SatisfiedFraction())
	}
	if (RoundMetrics{}).SatisfiedFraction() != 1 {
		t.Fatal("zero-offered should satisfy 1")
	}
	r := Result{Rounds: []RoundMetrics{
		{OfferedGbps: 100, ShippedGbps: 50, Changes: 2},
		{OfferedGbps: 100, ShippedGbps: 100, Changes: 1},
	}}
	if r.MeanSatisfied() != 0.75 {
		t.Fatalf("mean satisfied = %v", r.MeanSatisfied())
	}
	if r.TotalShipped() != 150 {
		t.Fatalf("total shipped = %v", r.TotalShipped())
	}
	if r.TotalChanges() != 3 {
		t.Fatalf("total changes = %d", r.TotalChanges())
	}
	if (&Result{}).MeanSatisfied() != 0 {
		t.Fatal("empty result mean")
	}
}

func TestFeasibleAtConsistent(t *testing.T) {
	sim, err := NewSimulation(testSimConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < sim.cfg.Net.NumFibers; f++ {
		for w := 0; w < sim.cfg.Net.Wavelengths; w++ {
			for r := 0; r < sim.cfg.Rounds; r++ {
				c := sim.FeasibleAt(f, w, r)
				if c != 0 {
					th, err := sim.cfg.Ladder.ThresholdFor(c)
					if err != nil {
						t.Fatal(err)
					}
					if sim.snrAt[f][w][r] < th {
						t.Fatalf("feasible %v above SNR %v", c, sim.snrAt[f][w][r])
					}
				}
			}
		}
	}
}

func BenchmarkSimulationRound(b *testing.B) {
	cfg := SimConfig{
		Net:            Abilene(2),
		Rounds:         4,
		RoundInterval:  6 * time.Hour,
		Seed:           1,
		DemandFraction: 0.8,
	}
	sim, err := NewSimulation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(PolicyDynamic); err != nil {
			b.Fatal(err)
		}
	}
}
