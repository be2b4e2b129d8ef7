package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/te"
)

// randomUpgradeTopology builds a topology with randomized capacities,
// upgrades (including absent and zero-headroom entries), and traffic.
func randomUpgradeTopology(r *rng.Source, nNodes, nEdges int) *Topology {
	g := graph.New()
	for i := 0; i < nNodes; i++ {
		g.AddNode("")
	}
	for i := 0; i < nEdges; i++ {
		from := graph.NodeID(r.Intn(nNodes))
		to := graph.NodeID(r.Intn(nNodes - 1))
		if to >= from {
			to++
		}
		g.AddEdge(graph.Edge{
			From:     from,
			To:       to,
			Capacity: r.Uniform(0, 40),
			Weight:   r.Uniform(1, 10),
		})
	}
	t := NewTopology(g)
	for i := 0; i < nEdges; i++ {
		id := graph.EdgeID(i)
		switch r.Intn(3) {
		case 0: // no upgrade entry
		case 1: // headroom
			if err := t.SetUpgrade(id, r.Uniform(1, 30), r.Uniform(0, 5)); err != nil {
				panic(err)
			}
		case 2: // explicit zero headroom (deletes)
			if err := t.SetUpgrade(id, 0, 0); err != nil {
				panic(err)
			}
		}
		if err := t.SetTraffic(id, r.Uniform(0, 20)); err != nil {
			panic(err)
		}
	}
	return t
}

// perturb re-rolls capacities, upgrades, and traffic in place,
// preserving graph structure — one simulated TE round's worth of churn.
func perturb(r *rng.Source, t *Topology) {
	for i := 0; i < t.G.NumEdges(); i++ {
		id := graph.EdgeID(i)
		t.G.SetCapacity(id, r.Uniform(0, 40))
		switch r.Intn(3) {
		case 0:
			if err := t.SetUpgrade(id, r.Uniform(1, 30), r.Uniform(0, 5)); err != nil {
				panic(err)
			}
		case 1:
			if err := t.SetUpgrade(id, 0, 0); err != nil {
				panic(err)
			}
		}
		if err := t.SetTraffic(id, r.Uniform(0, 20)); err != nil {
			panic(err)
		}
	}
}

// TestAugmenterMatchesAugment holds both layouts of the one Augmenter
// to refAugment, the compact augmentation as written before it became
// a layout: randomized topologies, several perturbation rounds each,
// and per round
//
//   - the dense layout (Refresh → warm solve → TranslateInto /
//     AttributionInto) against the reference's cold solve;
//   - the compact layout (Augment), gadgetized on a random link and
//     with random fakes removed, against the reference given the same
//     edits: same G′, same removals, same flow in.
//
// Decisions and attributions must agree bit for bit (fake IDs only
// between the compact layout and the reference; the dense layout
// numbers its fakes differently by design).
func TestAugmenterMatchesAugment(t *testing.T) {
	r := rng.New(0xA06)
	var gadgets, removed, upgrades int
	for trial := 0; trial < 300; trial++ {
		topo := randomUpgradeTopology(r, 8, 24)
		warm, err := NewAugmenter(topo, PenaltyTrafficProportional)
		if err != nil {
			t.Fatalf("trial %d: NewAugmenter: %v", trial, err)
		}
		warmTE := te.NewWarm(te.Greedy{})
		var dec Decision
		var att []FakeAttribution
		for round := 0; round < 4; round++ {
			if round > 0 {
				perturb(r, topo)
			}
			demands := []te.Demand{
				{Src: 0, Dst: graph.NodeID(1 + r.Intn(7)), Volume: r.Uniform(5, 60)},
				{Src: graph.NodeID(r.Intn(4)), Dst: graph.NodeID(4 + r.Intn(4)), Volume: r.Uniform(5, 60)},
			}
			if demands[1].Src == demands[1].Dst {
				continue
			}
			where := func(stage string) string { return fmt.Sprintf("trial %d round %d %s", trial, round, stage) }

			ref, err := refAugment(topo, PenaltyTrafficProportional)
			if err != nil {
				t.Fatalf("%s: refAugment: %v", where("ref"), err)
			}
			refAlloc, err := te.Greedy{}.Allocate(ref.Graph, demands)
			if err != nil {
				t.Fatalf("%s: allocate: %v", where("ref"), err)
			}
			refDec, err := ref.Translate(graph.FlowResult{Value: refAlloc.Throughput, EdgeFlow: refAlloc.EdgeFlow})
			if err != nil {
				t.Fatalf("%s: Translate: %v", where("ref"), err)
			}
			refAtt := ref.Attribution(refAlloc.EdgeFlow)

			// Dense layout over the persistent augmenter.
			if err := warm.Refresh(); err != nil {
				t.Fatalf("%s: Refresh: %v", where("dense"), err)
			}
			warmAlloc, err := warmTE.Allocate(warm.G, demands)
			if err != nil {
				t.Fatalf("%s: warm allocate: %v", where("dense"), err)
			}
			if got, want := len(warmAlloc.EdgeFlow), len(refAlloc.EdgeFlow)+countZeroFakes(topo); got != want {
				t.Fatalf("%s: augmented edge counts: dense %d, ref %d + %d zero fakes",
					where("dense"), got, len(refAlloc.EdgeFlow), countZeroFakes(topo))
			}
			if math.Float64bits(warmAlloc.Throughput) != math.Float64bits(refAlloc.Throughput) ||
				math.Float64bits(warmAlloc.Cost) != math.Float64bits(refAlloc.Cost) {
				t.Fatalf("%s: throughput/cost dense (%v,%v) ref (%v,%v)", where("dense"),
					warmAlloc.Throughput, warmAlloc.Cost, refAlloc.Throughput, refAlloc.Cost)
			}
			if err := warm.TranslateInto(&dec, graph.FlowResult{Value: warmAlloc.Throughput, EdgeFlow: warmAlloc.EdgeFlow}); err != nil {
				t.Fatalf("%s: TranslateInto: %v", where("dense"), err)
			}
			att = warm.AttributionInto(att, warmAlloc.EdgeFlow)
			requireSameDecision(t, where("dense"), &dec, refDec)
			requireSameAttribution(t, where("dense"), att, refAtt, false)

			// Compact layout, edited like the reference: a gadget on one
			// random upgradable link, then random fake removals.
			comp, err := Augment(topo, PenaltyTrafficProportional)
			if err != nil {
				t.Fatalf("%s: Augment: %v", where("compact"), err)
			}
			if len(ref.FakeFor) > 0 && r.Bernoulli(0.5) {
				pick := graph.EdgeID(r.Intn(topo.G.NumEdges()))
				for ; ; pick = (pick + 1) % graph.EdgeID(topo.G.NumEdges()) {
					if _, ok := ref.FakeFor[pick]; ok {
						break
					}
				}
				refInner, refErr := ref.UnsplittableGadget(pick)
				inner, err := comp.UnsplittableGadget(pick)
				if err != nil || refErr != nil || inner != refInner {
					t.Fatalf("%s: gadget on %d: got (%d, %v), ref (%d, %v)", where("compact"), pick, inner, err, refInner, refErr)
				}
				gadgets++
			}
			drop := make([]bool, topo.G.NumEdges())
			for i := range drop {
				drop[i] = r.Bernoulli(0.2)
			}
			keep := func(id graph.EdgeID) bool { return !drop[id] }
			n := comp.RemoveInfeasible(keep)
			if want := ref.RemoveInfeasible(keep); n != want {
				t.Fatalf("%s: RemoveInfeasible removed %d, ref %d", where("compact"), n, want)
			}
			removed += n
			requireSameGraph(t, where("compact"), comp.Graph, ref.Graph)
			if len(comp.FakeOf) != len(ref.FakeOf) || len(comp.FakeFor) != len(ref.FakeFor) {
				t.Fatalf("%s: fake maps %d/%d, ref %d/%d", where("compact"),
					len(comp.FakeOf), len(comp.FakeFor), len(ref.FakeOf), len(ref.FakeFor))
			}
			for fakeID, realID := range ref.FakeOf {
				if comp.FakeOf[fakeID] != realID || comp.FakeFor[realID] != fakeID {
					t.Fatalf("%s: fake %d of real %d missing from the maps", where("compact"), fakeID, realID)
				}
			}
			alloc, err := te.Greedy{}.Allocate(ref.Graph, demands)
			if err != nil {
				t.Fatalf("%s: allocate: %v", where("compact"), err)
			}
			res := graph.FlowResult{Value: alloc.Throughput, Cost: alloc.Cost, EdgeFlow: alloc.EdgeFlow}
			refDec, err = ref.Translate(res)
			if err != nil {
				t.Fatalf("%s: ref Translate: %v", where("compact"), err)
			}
			compDec, err := comp.Translate(res)
			if err != nil {
				t.Fatalf("%s: Translate: %v", where("compact"), err)
			}
			requireSameDecision(t, where("compact"), compDec, refDec)
			requireSameAttribution(t, where("compact"), comp.Attribution(alloc.EdgeFlow), ref.Attribution(alloc.EdgeFlow), true)
			upgrades += len(compDec.Changes)
		}
	}
	if gadgets == 0 || removed == 0 || upgrades == 0 {
		t.Fatalf("coverage: %d gadgets, %d removed fakes, %d upgrades; want all > 0", gadgets, removed, upgrades)
	}
	t.Logf("%d gadgets, %d removed fakes, %d upgrades", gadgets, removed, upgrades)
}

// requireSameGraph fails unless g and want have the same nodes and the
// same edges, attribute for attribute, in the same order.
func requireSameGraph(t *testing.T, where string, g, want *graph.Graph) {
	t.Helper()
	if g.NumNodes() != want.NumNodes() || g.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: G′ has %d nodes / %d edges, ref %d / %d", where,
			g.NumNodes(), g.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for i, w := range want.Edges() {
		e := g.Edge(graph.EdgeID(i))
		if e.From != w.From || e.To != w.To || e.Label != w.Label ||
			math.Float64bits(e.Capacity) != math.Float64bits(w.Capacity) ||
			math.Float64bits(e.Cost) != math.Float64bits(w.Cost) ||
			math.Float64bits(e.Weight) != math.Float64bits(w.Weight) {
			t.Fatalf("%s: G′ edge %d is %+v, ref %+v", where, i, e, w)
		}
	}
}

// requireSameDecision fails unless d and want agree bit for bit.
func requireSameDecision(t *testing.T, where string, d, want *Decision) {
	t.Helper()
	if math.Float64bits(d.Value) != math.Float64bits(want.Value) ||
		math.Float64bits(d.PenaltyCost) != math.Float64bits(want.PenaltyCost) {
		t.Fatalf("%s: value/cost (%v,%v), ref (%v,%v)", where, d.Value, d.PenaltyCost, want.Value, want.PenaltyCost)
	}
	if len(d.EdgeFlow) != len(want.EdgeFlow) {
		t.Fatalf("%s: decision edge flows %d, ref %d", where, len(d.EdgeFlow), len(want.EdgeFlow))
	}
	for id := range d.EdgeFlow {
		if math.Float64bits(d.EdgeFlow[id]) != math.Float64bits(want.EdgeFlow[id]) {
			t.Fatalf("%s: edge %d flow %v, ref %v", where, id, d.EdgeFlow[id], want.EdgeFlow[id])
		}
	}
	if len(d.Changes) != len(want.Changes) {
		t.Fatalf("%s: changes %d, ref %d", where, len(d.Changes), len(want.Changes))
	}
	for i := range d.Changes {
		g, w := d.Changes[i], want.Changes[i]
		if g.Edge != w.Edge ||
			math.Float64bits(g.OldCapacity) != math.Float64bits(w.OldCapacity) ||
			math.Float64bits(g.NewCapacity) != math.Float64bits(w.NewCapacity) ||
			math.Float64bits(g.Penalty) != math.Float64bits(w.Penalty) ||
			math.Float64bits(g.FlowOnFake) != math.Float64bits(w.FlowOnFake) {
			t.Fatalf("%s: change %d is %+v, ref %+v", where, i, g, w)
		}
	}
}

// requireSameAttribution fails unless att and want cover the same links
// with the same offers and fake flows, bit for bit; withFakeIDs also
// compares the fake edge IDs.
func requireSameAttribution(t *testing.T, where string, att, want []FakeAttribution, withFakeIDs bool) {
	t.Helper()
	if len(att) != len(want) {
		t.Fatalf("%s: attributions %d, ref %d", where, len(att), len(want))
	}
	for i := range att {
		g, w := att[i], want[i]
		if g.Real != w.Real || (withFakeIDs && g.Fake != w.Fake) ||
			math.Float64bits(g.FakeCapacity) != math.Float64bits(w.FakeCapacity) ||
			math.Float64bits(g.FakePenalty) != math.Float64bits(w.FakePenalty) ||
			math.Float64bits(g.FlowOnFake) != math.Float64bits(w.FlowOnFake) {
			t.Fatalf("%s: attribution %d is %+v, ref %+v", where, i, g, w)
		}
	}
}

// countZeroFakes counts links the compact augmentation would NOT create
// a fake edge for (the stable layout carries them at capacity 0).
func countZeroFakes(t *Topology) int {
	n := 0
	for i := 0; i < t.G.NumEdges(); i++ {
		if up, ok := t.Upgrades[graph.EdgeID(i)]; !ok || up.ExtraCapacity <= 0 {
			n++
		}
	}
	return n
}

// TestAugmenterRejectsStructuralChange pins the guard: growing the
// underlying topology after NewAugmenter must error, not silently
// mistranslate.
func TestAugmenterRejectsStructuralChange(t *testing.T) {
	r := rng.New(1)
	topo := randomUpgradeTopology(r, 4, 6)
	a, err := NewAugmenter(topo, nil)
	if err != nil {
		t.Fatalf("NewAugmenter: %v", err)
	}
	topo.G.AddEdge(graph.Edge{From: 0, To: 1, Capacity: 1})
	if err := a.Refresh(); err == nil {
		t.Fatal("Refresh accepted a structurally changed topology")
	}
}

// TestAugmenterSteadyStateAllocs verifies the warm round loop —
// Refresh, warm allocate, TranslateInto, AttributionInto — settles to
// zero allocations per round.
func TestAugmenterSteadyStateAllocs(t *testing.T) {
	r := rng.New(0xBEEF)
	topo := randomUpgradeTopology(r, 10, 30)
	warm, err := NewAugmenter(topo, PenaltyTrafficProportional)
	if err != nil {
		t.Fatalf("NewAugmenter: %v", err)
	}
	warmTE := te.NewWarm(te.Greedy{})
	demands := []te.Demand{
		{Src: 0, Dst: 5, Volume: 25},
		{Src: 1, Dst: 7, Volume: 18},
	}
	var dec Decision
	var att []FakeAttribution
	round := func() {
		perturb(r, topo)
		if err := warm.Refresh(); err != nil {
			t.Fatal(err)
		}
		alloc, err := warmTE.Allocate(warm.G, demands)
		if err != nil {
			t.Fatal(err)
		}
		if err := warm.TranslateInto(&dec, graph.FlowResult{Value: alloc.Throughput, EdgeFlow: alloc.EdgeFlow}); err != nil {
			t.Fatal(err)
		}
		att = warm.AttributionInto(att, alloc.EdgeFlow)
	}
	// Warm-up rounds grow every scratch buffer to steady-state size.
	for i := 0; i < 5; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(20, round); avg != 0 {
		t.Fatalf("steady-state round allocates %v times per run, want 0", avg)
	}
}
