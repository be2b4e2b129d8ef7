package te

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
)

// square builds the Figure 7 topology: A,B,C,D with bidirectional
// 100 Gbps unit-weight links A-B, C-D, A-C, B-D.
func square() (*graph.Graph, [4]graph.NodeID) {
	g := graph.New()
	a, b, c, d := g.AddNode("A"), g.AddNode("B"), g.AddNode("C"), g.AddNode("D")
	both := func(u, v graph.NodeID) {
		g.AddEdge(graph.Edge{From: u, To: v, Capacity: 100, Weight: 1})
		g.AddEdge(graph.Edge{From: v, To: u, Capacity: 100, Weight: 1})
	}
	both(a, b)
	both(c, d)
	both(a, c)
	both(b, d)
	return g, [4]graph.NodeID{a, b, c, d}
}

func allAlgorithms() []Algorithm {
	return []Algorithm{
		ShortestPath{},
		Greedy{},
		KPath{K: 4},
		MaxConcurrent{Epsilon: 0.1},
	}
}

func TestAlgorithmsSatisfyEasyDemands(t *testing.T) {
	g, n := square()
	demands := []Demand{
		{Src: n[0], Dst: n[1], Volume: 50},
		{Src: n[2], Dst: n[3], Volume: 50},
	}
	for _, alg := range allAlgorithms() {
		alloc, err := alg.Allocate(g, demands)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if err := CheckFeasible(g, alloc); err != nil {
			t.Fatalf("%s: infeasible: %v", alg.Name(), err)
		}
		if alloc.Throughput < 95 {
			t.Errorf("%s: throughput = %v, want ≈ 100", alg.Name(), alloc.Throughput)
		}
		for i, r := range alloc.Results {
			if r.Shipped < 45 {
				t.Errorf("%s: demand %d shipped only %v", alg.Name(), i, r.Shipped)
			}
		}
	}
}

func TestAlgorithmsRespectCapacity(t *testing.T) {
	g, n := square()
	// Oversubscribed: demand far exceeds the 200 cut.
	demands := []Demand{
		{Src: n[0], Dst: n[3], Volume: 1000},
	}
	for _, alg := range allAlgorithms() {
		alloc, err := alg.Allocate(g, demands)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if err := CheckFeasible(g, alloc); err != nil {
			t.Fatalf("%s: infeasible: %v", alg.Name(), err)
		}
		// Max possible A->D is 200 (two disjoint 100 paths).
		if alloc.Throughput > 200+1e-6 {
			t.Errorf("%s: shipped %v above the 200 cut", alg.Name(), alloc.Throughput)
		}
	}
}

func TestAlgorithmsDoNotMutateInput(t *testing.T) {
	g, n := square()
	before := g.Edges()
	demands := []Demand{{Src: n[0], Dst: n[3], Volume: 300}}
	for _, alg := range allAlgorithms() {
		if _, err := alg.Allocate(g, demands); err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		after := g.Edges()
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("%s mutated edge %d: %+v -> %+v", alg.Name(), i, before[i], after[i])
			}
		}
	}
}

func TestValidateDemand(t *testing.T) {
	g, n := square()
	bad := []Demand{
		{Src: 99, Dst: n[1], Volume: 1},
		{Src: n[0], Dst: n[0], Volume: 1},
		{Src: n[0], Dst: n[1], Volume: -1},
	}
	for _, d := range bad {
		if err := d.Validate(g); err == nil {
			t.Errorf("demand %+v accepted", d)
		}
	}
	for _, alg := range allAlgorithms() {
		if _, err := alg.Allocate(g, bad[:1]); err == nil {
			t.Errorf("%s accepted invalid demand", alg.Name())
		}
	}
}

// TestNonFiniteVolumeRejected: a NaN volume passes a bare "< 0" check,
// and KPath's water-fill then never sees the demand as satisfied and
// spins forever (hung past a 10 s timeout before Validate rejected it).
// Every allocator must refuse NaN and ±Inf up front; the deadline turns
// a regression into a failure instead of a stuck test binary.
func TestNonFiniteVolumeRejected(t *testing.T) {
	g, n := square()
	for _, vol := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d := Demand{Src: n[0], Dst: n[3], Volume: vol}
		if err := d.Validate(g); err == nil {
			t.Errorf("Validate accepted volume %v", vol)
		}
		for _, alg := range allAlgorithms() {
			done := make(chan error, 1)
			go func() {
				_, err := alg.Allocate(g, []Demand{{Src: n[0], Dst: n[1], Volume: 1}, d})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Errorf("%s accepted volume %v", alg.Name(), vol)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s did not return within 5s on volume %v", alg.Name(), vol)
			}
		}
	}
}

func TestZeroVolumeDemandsNoop(t *testing.T) {
	g, n := square()
	demands := []Demand{{Src: n[0], Dst: n[1], Volume: 0}}
	for _, alg := range allAlgorithms() {
		alloc, err := alg.Allocate(g, demands)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if alloc.Throughput != 0 {
			t.Errorf("%s shipped %v for zero demand", alg.Name(), alloc.Throughput)
		}
	}
}

func TestEmptyDemands(t *testing.T) {
	g, _ := square()
	for _, alg := range allAlgorithms() {
		alloc, err := alg.Allocate(g, nil)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if alloc.Throughput != 0 || len(alloc.Results) != 0 {
			t.Errorf("%s: non-trivial allocation for no demands", alg.Name())
		}
	}
}

func TestDisconnectedDemand(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddEdge(graph.Edge{From: a, To: b, Capacity: 10, Weight: 1})
	demands := []Demand{
		{Src: a, Dst: b, Volume: 5},
		{Src: a, Dst: c, Volume: 5}, // unreachable
	}
	for _, alg := range allAlgorithms() {
		alloc, err := alg.Allocate(g, demands)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if alloc.Results[1].Shipped != 0 {
			t.Errorf("%s shipped to unreachable node", alg.Name())
		}
		if alloc.Results[0].Shipped < 4.5 {
			t.Errorf("%s: reachable demand starved (%v) by unreachable one", alg.Name(), alloc.Results[0].Shipped)
		}
	}
}

func TestShortestPathUsesMinWeight(t *testing.T) {
	g := graph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	direct := g.AddEdge(graph.Edge{From: a, To: c, Capacity: 100, Weight: 5})
	via1 := g.AddEdge(graph.Edge{From: a, To: b, Capacity: 100, Weight: 1})
	via2 := g.AddEdge(graph.Edge{From: b, To: c, Capacity: 100, Weight: 1})
	alloc, err := ShortestPath{}.Allocate(g, []Demand{{Src: a, Dst: c, Volume: 60}})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.EdgeFlow[via1] != 60 || alloc.EdgeFlow[via2] != 60 || alloc.EdgeFlow[direct] != 0 {
		t.Fatalf("flow not on min-weight path: %v", alloc.EdgeFlow)
	}
}

func TestShortestPathSinglePathLimitation(t *testing.T) {
	// ShortestPath ships only the bottleneck of one path even when a
	// second path could carry the rest — that's the baseline's flaw.
	g, n := square()
	alloc, err := ShortestPath{}.Allocate(g, []Demand{{Src: n[0], Dst: n[3], Volume: 200}})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Throughput != 100 {
		t.Fatalf("single-path baseline shipped %v, want 100", alloc.Throughput)
	}
}

// TestShortestPathMatchesPerDemandRebuild: ShortestPath keeps one
// graph.PathSolver for the whole call and refreshes it only when a
// demand fills an edge. On oversubscribed random graphs (so edges do
// fill, and later demands must route around them or fail) every
// demand's shipped volume and path must equal what a from-scratch
// search over the remaining capacities gives.
func TestShortestPathMatchesPerDemandRebuild(t *testing.T) {
	r := rng.New(0x5b)
	for trial := 0; trial < 50; trial++ {
		g := graph.New()
		n := 6 + r.Intn(6)
		g.AddNodes(n)
		for i := 0; i < 3*n; i++ {
			u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
			if u != v {
				g.AddEdge(graph.Edge{From: u, To: v, Capacity: float64(10 * (1 + r.Intn(3))), Weight: float64(1 + r.Intn(3))})
			}
		}
		var demands []Demand
		for i := 0; i < 4*n; i++ {
			u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
			if u != v {
				demands = append(demands, Demand{Src: u, Dst: v, Volume: float64(5 * (1 + r.Intn(4))), Priority: r.Intn(2)})
			}
		}
		alloc, err := ShortestPath{}.Allocate(g, demands)
		if err != nil {
			t.Fatal(err)
		}
		work := g.Clone()
		for _, i := range byPriority(demands) {
			d := demands[i]
			var want []graph.PathFlow
			if p, _, ok := work.ShortestPathDijkstra(d.Src, d.Dst); ok {
				amt := d.Volume
				for _, id := range p.Edges {
					amt = math.Min(amt, work.Edge(id).Capacity)
				}
				for _, id := range p.Edges {
					work.SetCapacity(id, math.Max(0, work.Edge(id).Capacity-amt))
				}
				want = []graph.PathFlow{{Path: p, Amount: amt}}
			}
			if got := alloc.Results[i].Paths; !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d demand %d (%d->%d): paths %+v, per-demand rebuild gives %+v", trial, i, d.Src, d.Dst, got, want)
			}
		}
	}
}

func TestGreedyUsesMultiplePaths(t *testing.T) {
	g, n := square()
	alloc, err := Greedy{}.Allocate(g, []Demand{{Src: n[0], Dst: n[3], Volume: 200}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alloc.Throughput-200) > 1e-6 {
		t.Fatalf("greedy shipped %v, want 200", alloc.Throughput)
	}
	if err := CheckFeasible(g, alloc); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyPrefersCheapEdges(t *testing.T) {
	g := graph.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	cheap := g.AddEdge(graph.Edge{From: a, To: b, Capacity: 100, Cost: 0})
	dear := g.AddEdge(graph.Edge{From: a, To: b, Capacity: 100, Cost: 10})
	alloc, err := Greedy{}.Allocate(g, []Demand{{Src: a, Dst: b, Volume: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.EdgeFlow[cheap] != 100 || alloc.EdgeFlow[dear] != 0 {
		t.Fatalf("greedy ignored costs: %v", alloc.EdgeFlow)
	}
	if alloc.Cost != 0 {
		t.Fatalf("cost = %v", alloc.Cost)
	}
}

func TestGreedyOrderMatters(t *testing.T) {
	// First demand can hog capacity; later demand starves. Documents
	// the sequential nature (and why KPath water-fills).
	g := graph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddEdge(graph.Edge{From: a, To: b, Capacity: 100, Weight: 1})
	g.AddEdge(graph.Edge{From: b, To: c, Capacity: 100, Weight: 1})
	alloc, err := Greedy{}.Allocate(g, []Demand{
		{Src: a, Dst: c, Volume: 100},
		{Src: b, Dst: c, Volume: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Results[0].Shipped != 100 || alloc.Results[1].Shipped != 0 {
		t.Fatalf("expected first-come-first-served: %v, %v",
			alloc.Results[0].Shipped, alloc.Results[1].Shipped)
	}
}

func TestKPathSharesFairly(t *testing.T) {
	// Same contention as above: water-filling should split the b->c
	// bottleneck roughly evenly.
	g := graph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddEdge(graph.Edge{From: a, To: b, Capacity: 100, Weight: 1})
	g.AddEdge(graph.Edge{From: b, To: c, Capacity: 100, Weight: 1})
	alloc, err := KPath{K: 2}.Allocate(g, []Demand{
		{Src: a, Dst: c, Volume: 100},
		{Src: b, Dst: c, Volume: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := alloc.Results[0].Shipped, alloc.Results[1].Shipped
	if math.Abs(s0-s1) > 5 {
		t.Fatalf("unfair split: %v vs %v", s0, s1)
	}
	if math.Abs(s0+s1-100) > 1e-6 {
		t.Fatalf("bottleneck not filled: %v", s0+s1)
	}
	if err := CheckFeasible(g, alloc); err != nil {
		t.Fatal(err)
	}
}

func TestKPathDefaults(t *testing.T) {
	if (KPath{}).Name() != "k-path(k=4)" {
		t.Fatalf("default name: %s", KPath{}.Name())
	}
	g, n := square()
	alloc, err := KPath{}.Allocate(g, []Demand{{Src: n[0], Dst: n[1], Volume: 150}})
	if err != nil {
		t.Fatal(err)
	}
	// k=4 gives A->B both the direct path and the A-C-D-B detour.
	if alloc.Throughput < 149 {
		t.Fatalf("k-path throughput %v, want ≈ 150", alloc.Throughput)
	}
}

func TestMaxConcurrentBalances(t *testing.T) {
	// Two demands sharing one 100-unit bottleneck: each should get
	// close to half its ask at the same fraction.
	g := graph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddEdge(graph.Edge{From: a, To: b, Capacity: 100, Weight: 1})
	g.AddEdge(graph.Edge{From: b, To: c, Capacity: 100, Weight: 1})
	alloc, err := MaxConcurrent{Epsilon: 0.05}.Allocate(g, []Demand{
		{Src: a, Dst: c, Volume: 100},
		{Src: b, Dst: c, Volume: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFeasible(g, alloc); err != nil {
		t.Fatal(err)
	}
	f0 := alloc.Results[0].Shipped / 100
	f1 := alloc.Results[1].Shipped / 100
	if math.Abs(f0-f1) > 1e-6 {
		t.Fatalf("not concurrent: fractions %v vs %v", f0, f1)
	}
	// Optimal λ = 0.5; (1-ε)³ with ε=0.05 ≈ 0.857 → λ ≥ 0.42.
	if f0 < 0.40 {
		t.Fatalf("λ = %v, want ≥ 0.40", f0)
	}
}

func TestMaxConcurrentSatisfiableClampsAtOne(t *testing.T) {
	g, n := square()
	alloc, err := MaxConcurrent{Epsilon: 0.1}.Allocate(g, []Demand{
		{Src: n[0], Dst: n[1], Volume: 30},
		{Src: n[2], Dst: n[3], Volume: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range alloc.Results {
		if r.Shipped > 30+1e-6 {
			t.Fatalf("demand %d overshipped: %v", i, r.Shipped)
		}
	}
	if alloc.Throughput < 55 {
		t.Fatalf("throughput %v, want ≈ 60", alloc.Throughput)
	}
}

func TestMaxConcurrentApproximationQuality(t *testing.T) {
	// Random graphs: λ from GK must be within the guarantee of the
	// exact λ* (computed for the single-commodity case via max flow).
	r := rng.New(13)
	for trial := 0; trial < 5; trial++ {
		g := graph.New()
		const n = 10
		g.AddNodes(n)
		for i := 0; i < 40; i++ {
			u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
			if u == v {
				continue
			}
			g.AddEdge(graph.Edge{From: u, To: v, Capacity: r.Uniform(10, 50), Weight: 1})
		}
		src, dst := graph.NodeID(0), graph.NodeID(n-1)
		mf, err := g.MaxFlowValue(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if mf < 1 {
			continue
		}
		demand := mf * 2 // oversubscribe so λ* = 0.5
		alloc, err := MaxConcurrent{Epsilon: 0.05}.Allocate(g, []Demand{{Src: src, Dst: dst, Volume: demand}})
		if err != nil {
			t.Fatal(err)
		}
		lambda := alloc.Results[0].Shipped / demand
		if lambda < 0.5*0.8 {
			t.Fatalf("trial %d: λ = %v, want ≥ 0.4 (λ* = 0.5)", trial, lambda)
		}
		if lambda > 0.5+1e-6 {
			t.Fatalf("trial %d: λ = %v exceeds optimum 0.5", trial, lambda)
		}
		if err := CheckFeasible(g, alloc); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMaxConcurrentBadEpsilonDefaults(t *testing.T) {
	if (MaxConcurrent{Epsilon: -1}).Name() != "max-concurrent(eps=0.1)" {
		t.Fatal("bad epsilon not defaulted")
	}
	if (MaxConcurrent{Epsilon: 3}).Name() != "max-concurrent(eps=0.1)" {
		t.Fatal("big epsilon not defaulted")
	}
}

// TestMaxConcurrentNaNEpsilonDefaults: NaN fails "<= 0" and "> 0.5"
// alike, so it used to pass for a valid ε, print as eps=NaN and make
// Allocate ship nothing without an error.
func TestMaxConcurrentNaNEpsilonDefaults(t *testing.T) {
	m := MaxConcurrent{Epsilon: math.NaN()}
	if m.Name() != "max-concurrent(eps=0.1)" {
		t.Fatalf("NaN epsilon not defaulted: %s", m.Name())
	}
	g, n := square()
	alloc, err := m.Allocate(g, []Demand{{Src: n[0], Dst: n[1], Volume: 30}})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Throughput < 29 {
		t.Fatalf("throughput %v on a satisfiable instance, want ≈ 30", alloc.Throughput)
	}
}

// TestMaxConcurrentEpsilonUnderflow: an ε so small that δ is 0 or a
// denormal is refused up front, not run for ~2·ln m/ε² phases over
// zero-length edges.
func TestMaxConcurrentEpsilonUnderflow(t *testing.T) {
	g, n := square()
	demands := []Demand{{Src: n[0], Dst: n[1], Volume: 30}}
	for _, e := range []float64{1e-4 /* δ = 0 */, 0.00285 /* δ ≈ 5e-318, a denormal */} {
		if _, err := (MaxConcurrent{Epsilon: e}).Allocate(g, demands); err == nil {
			t.Fatalf("eps %v: δ underflow accepted", e)
		}
	}
	// Nothing to route: no δ is needed, so no error either.
	if _, err := (MaxConcurrent{Epsilon: 1e-4}).Allocate(g, []Demand{{Src: n[0], Dst: n[1]}}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxConcurrentOneTreePerSource: two sinks behind one source whose
// asks fit together cost one tree per phase, and the tree's work is
// countable by hand: s, a and both sinks are dequeued (4 pops), s→a and
// a's two arcs are examined (3 relaxations; the search stops on the
// second sink before scanning it).
func TestMaxConcurrentOneTreePerSource(t *testing.T) {
	g := graph.New()
	s, a, t1, t2 := g.AddNode("s"), g.AddNode("a"), g.AddNode("t1"), g.AddNode("t2")
	g.AddEdge(graph.Edge{From: s, To: a, Capacity: 10, Weight: 1})
	g.AddEdge(graph.Edge{From: a, To: t1, Capacity: 10, Weight: 1})
	g.AddEdge(graph.Edge{From: a, To: t2, Capacity: 10, Weight: 1})
	alloc, err := MaxConcurrent{Epsilon: 0.1}.Allocate(g, []Demand{
		{Src: s, Dst: t1, Volume: 3},
		{Src: s, Dst: t2, Volume: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := alloc.Solver
	if st.Phases == 0 || st.Augmentations != st.Phases {
		t.Fatalf("%d tree steps in %d phases, want one per phase", st.Augmentations, st.Phases)
	}
	if st.Pops != 4*st.Phases || st.Relaxations != 3*st.Phases {
		t.Fatalf("pops %d relaxations %d over %d trees, want 4 and 3 per tree", st.Pops, st.Relaxations, st.Phases)
	}
	if math.Abs(alloc.Throughput-6) > 1e-6 {
		t.Fatalf("throughput %v, want 6", alloc.Throughput)
	}
}

func TestCheckFeasibleCatchesViolations(t *testing.T) {
	g, n := square()
	alloc := &Allocation{EdgeFlow: make([]float64, g.NumEdges())}
	alloc.EdgeFlow[0] = 1000 // over capacity
	if err := CheckFeasible(g, alloc); err == nil {
		t.Fatal("over-capacity flow accepted")
	}
	alloc.EdgeFlow[0] = -5
	if err := CheckFeasible(g, alloc); err == nil {
		t.Fatal("negative flow accepted")
	}
	if err := CheckFeasible(g, &Allocation{EdgeFlow: []float64{1}}); err == nil {
		t.Fatal("wrong length accepted")
	}
	_ = n
}

func TestAllNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, alg := range allAlgorithms() {
		if seen[alg.Name()] {
			t.Fatalf("duplicate name %s", alg.Name())
		}
		seen[alg.Name()] = true
	}
}

func BenchmarkGreedyBackbone(b *testing.B) {
	r := rng.New(3)
	g := graph.New()
	const n = 30
	g.AddNodes(n)
	for i := 0; i < 120; i++ {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if u == v {
			continue
		}
		g.AddEdge(graph.Edge{From: u, To: v, Capacity: 100, Weight: 1})
	}
	demands := make([]Demand, 0, 20)
	for len(demands) < 20 {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if u == v {
			continue
		}
		demands = append(demands, Demand{Src: u, Dst: v, Volume: r.Uniform(10, 80)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Greedy{}).Allocate(g, demands); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxConcurrentBackbone(b *testing.B) {
	r := rng.New(3)
	g := graph.New()
	const n = 20
	g.AddNodes(n)
	for i := 0; i < 80; i++ {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if u == v {
			continue
		}
		g.AddEdge(graph.Edge{From: u, To: v, Capacity: 100, Weight: 1})
	}
	demands := make([]Demand, 0, 10)
	for len(demands) < 10 {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if u == v {
			continue
		}
		demands = append(demands, Demand{Src: u, Dst: v, Volume: r.Uniform(10, 80)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (MaxConcurrent{Epsilon: 0.2}).Allocate(g, demands); err != nil {
			b.Fatal(err)
		}
	}
}
