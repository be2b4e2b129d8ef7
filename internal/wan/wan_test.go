package wan

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/te"
)

func rngNew(seed uint64) *rng.Source { return rng.New(seed) }

// connected reports whether a Dijkstra from node 0 reaches every node
// over g's adjacency. Capacities are zero until a simulation round
// lights the wavelengths, and Dijkstra skips zero-capacity edges, so
// it runs on a copy with every edge at capacity 1.
func connected(g *graph.Graph) bool {
	lit := g.Clone()
	for _, e := range lit.Edges() {
		lit.SetCapacity(e.ID, 1)
	}
	for v := 1; v < lit.NumNodes(); v++ {
		if _, _, ok := graph.NewPathSolver(lit).ShortestPath(0, graph.NodeID(v), nil); !ok {
			return false
		}
	}
	return true
}

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
	if !connected(n.G) {
		t.Fatal("Abilene not connected")
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
	if !connected(n.G) {
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
	if !connected(n.G) {
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
	for _, total := range []float64{-1, math.Inf(1), math.NaN(), math.MaxFloat64} {
		// MaxFloat64 is finite, but the gravity products overflow.
		if _, err := GravityTraffic(n, total); err == nil {
			t.Fatalf("total volume %v accepted", total)
		}
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

// TestStaticMaxDarkerThanStatic100: a wavelength configured statically
// above 100G goes dark at an SNR static-100G rides through (Figure 3a's
// lesson). One fiber whose two wavelengths static-max runs at 125 Gbps
// or more dips to 7 dB for one round: above QPSK's 6.5 dB, below the
// 8.5 dB of the lowest upgraded rung. Both of its edges go dark under
// static-max alone.
func TestStaticMaxDarkerThanStatic100(t *testing.T) {
	const dipdB, dipRound = 7.0, 30
	cfg := testSimConfig(t)
	cfg.Rounds = 60
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fiber := -1
	for f := 0; f < cfg.Net.NumFibers && fiber < 0; f++ {
		if sim.staticMaxCapacity(f, 0) >= 125 && sim.staticMaxCapacity(f, 1) >= 125 {
			fiber = f
		}
	}
	if fiber < 0 {
		t.Fatal("no fiber runs both wavelengths at 125 Gbps or more under static-max; pick another seed")
	}
	for w := 0; w < cfg.Net.Wavelengths; w++ {
		if err := sim.OverrideSNR(fiber, w, dipRound, dipdB); err != nil {
			t.Fatal(err)
		}
		if c := sim.staticMaxCapacity(fiber, w); c < 125 {
			t.Fatalf("the dip moved fiber %d wavelength %d's static-max rung to %v Gbps", fiber, w, c)
		}
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
	t.Logf("dark link-rounds with fiber %d dipped at round %d: static-100 %d, static-max %d", fiber, dipRound, dark100, darkMax)
	if darkMax <= dark100 {
		t.Fatalf("static-max dark link-rounds %d, want more than static-100's %d", darkMax, dark100)
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
	for _, f := range []float64{-1, 1e308, math.NaN()} {
		cfg = testSimConfig(t)
		cfg.DemandFraction = f
		if _, err := NewSimulation(cfg); err == nil {
			t.Fatalf("demand fraction %v accepted", f)
		}
	}
	cfg = testSimConfig(t)
	cfg.DemandSigma = math.NaN()
	if _, err := NewSimulation(cfg); err == nil {
		t.Fatal("NaN demand sigma accepted")
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

// TestOverrideSNRRejectsNonFinite: an injected SNR is a measurement, so
// NaN and ±Inf are refused. A NaN cell silently dropped out of
// wan_snr_min_db, and an infinite one ran every round and then failed
// to encode in the trace.
func TestOverrideSNRRejectsNonFinite(t *testing.T) {
	sim, err := NewSimulation(testSimConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := sim.OverrideSNR(0, 0, 1, db); err == nil {
			t.Errorf("OverrideSNR accepted %v dB", db)
		}
	}
	if err := sim.OverrideSNR(0, 0, 1, -5); err != nil {
		t.Fatal(err)
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
					th, err := sim.ladder.ThresholdFor(c)
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
