package gate

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/modulation"
	"repro/internal/rng"
)

// refLoop is the oracle: internal/wan's dynamic policy as it was written
// inline in policyRun.round before the gate existed — forced downgrades
// to the feasible rung, every wavelength's headroom on the persistent
// augmented topology, every wavelength of an upgraded fiber raised —
// kept verbatim apart from its inputs (feasibleAt for s.FeasibleAt, a
// given decision for the TE solve) and outputs (orders collected instead
// of traced).
type refLoop struct {
	fiberOf    []int
	nFibers    int
	nEdges     int
	w          int
	configured [][]modulation.Gbps
	work       *graph.Graph
	top        *core.Topology
	aug        *core.Augmenter
	upgraded   []bool
	forced     []bool
	orders     []string
}

func newRefLoop(t *testing.T, g *graph.Graph, fiberOf []int, nFibers, w int) *refLoop {
	t.Helper()
	ref := &refLoop{fiberOf: fiberOf, nFibers: nFibers, nEdges: g.NumEdges(), w: w,
		configured: make([][]modulation.Gbps, nFibers), work: g.Clone(),
		upgraded: make([]bool, g.NumEdges()), forced: make([]bool, nFibers)}
	for f := range ref.configured {
		ref.configured[f] = make([]modulation.Gbps, w)
		for wl := range ref.configured[f] {
			ref.configured[f][wl] = 100
		}
	}
	ref.top = core.NewTopology(ref.work)
	var err error
	if ref.aug, err = core.NewAugmenter(ref.top, core.PenaltyTrafficProportional); err != nil {
		t.Fatal(err)
	}
	return ref
}

func (ref *refLoop) emitOrder(f, w int, from, to modulation.Gbps, cause string) {
	ref.orders = append(ref.orders, fmt.Sprintf("%d/%d %v->%v %s", f, w, from, to, cause))
}

// settle is steps 1 and 2 of the inline round.
func (ref *refLoop) settle(feasibleAt func(f, w int) modulation.Gbps, prevFlow []float64) error {
	configured, work := ref.configured, ref.work
	ref.orders = ref.orders[:0]
	// 1. Forced downgrades: SNR no longer supports the
	//    configured rate → flap down to the feasible rate
	//    (possibly 0 on loss of light).
	clear(ref.forced)
	clear(ref.upgraded)
	for f := 0; f < ref.nFibers; f++ {
		for w := 0; w < ref.w; w++ {
			feas := feasibleAt(f, w)
			if feas < configured[f][w] {
				ref.emitOrder(f, w, configured[f][w], feas, "forced-downgrade")
				configured[f][w] = feas
				ref.forced[f] = true
			}
		}
	}
	// 2. Build the TE input: current capacities plus upgrade
	//    headroom, traffic annotations from last round. The
	//    unconditional SetUpgrade matters: zero headroom deletes
	//    the entry, clearing last round's upgrade from the
	//    persistent topology.
	for id := 0; id < ref.nEdges; id++ {
		eid := graph.EdgeID(id)
		f := ref.fiberOf[id]
		var cur, headroom modulation.Gbps
		for w := 0; w < ref.w; w++ {
			cur += configured[f][w]
			if feas := feasibleAt(f, w); feas > configured[f][w] {
				headroom += feas - configured[f][w]
			}
		}
		work.SetCapacity(eid, float64(cur))
		if err := ref.top.SetUpgrade(eid, float64(headroom), 1); err != nil {
			return err
		}
		if err := ref.top.SetTraffic(eid, prevFlow[id]); err != nil {
			return err
		}
	}
	return ref.aug.Refresh()
}

// commit is step 3 of the inline round.
func (ref *refLoop) commit(feasibleAt func(f, w int) modulation.Gbps, dec *core.Decision) {
	configured := ref.configured
	ref.orders = ref.orders[:0]
	// 3. Apply upgrades: raise every wavelength of a changed
	//    link to its feasible capacity.
	for _, ch := range dec.Changes {
		f := ref.fiberOf[ch.Edge]
		for w := 0; w < ref.w; w++ {
			if feas := feasibleAt(f, w); feas > configured[f][w] {
				ref.emitOrder(f, w, configured[f][w], feas, "upgrade")
				configured[f][w] = feas
			}
		}
		ref.upgraded[ch.Edge] = true
	}
}

// fiberNet builds nFibers random fibers over n nodes, each carrying two
// directed edges (one per direction), as wan's topologies do.
func fiberNet(r *rng.Source, n, nFibers int) (*graph.Graph, []int) {
	g := graph.New()
	g.AddNodes(n)
	var fiberOf []int
	for f := 0; f < nFibers; f++ {
		u := r.Intn(n)
		v := (u + 1 + r.Intn(n-1)) % n
		g.AddEdge(graph.Edge{From: graph.NodeID(u), To: graph.NodeID(v), Weight: 1 + float64(r.Intn(4))})
		g.AddEdge(graph.Edge{From: graph.NodeID(v), To: graph.NodeID(u), Weight: 1 + float64(r.Intn(4))})
		fiberOf = append(fiberOf, f, f)
	}
	return g, fiberOf
}

// snrWalk advances every channel's SNR one round: mostly small steps,
// sometimes a jump, over a range that crosses every threshold of the
// default ladder (3.0 … 15.5 dB) and loss of light.
func snrWalk(r *rng.Source, snr []float64) {
	for c := range snr {
		if r.Bernoulli(0.1) {
			snr[c] = r.Uniform(-1, 20)
		} else {
			snr[c] = math.Max(-1, math.Min(20, snr[c]+r.Uniform(-2.5, 2.5)))
		}
	}
}

// randomDecision selects a random subset of the edges with an offered
// fake edge, as a TE's translated decision would (ascending edge IDs,
// random flow over each fake).
func randomDecision(r *rng.Source, g *Gate) *core.Decision {
	dec := &core.Decision{}
	for e := range g.Verdicts {
		id := graph.EdgeID(e)
		if g.Aug.G.Edge(g.Aug.FakeID(id)).Capacity > 0 && r.Bernoulli(0.5) {
			dec.Changes = append(dec.Changes, core.CapacityChange{Edge: id, FlowOnFake: float64(1 + r.Intn(40))})
		}
	}
	return dec
}

// TestGateMatchesInlineWANLoop: with the settings wan passes (hold 1,
// margin 0, no floor, damping, budget or pins), the gate makes exactly
// the inline loop's decisions — the same orders in the same order,
// the same configured rungs, the same augmented TE input (visible
// capacity, offered headroom and penalty of every edge) and the same
// upgraded/forced marks — on random fibers × wavelengths under SNR walks
// and random decisions.
func TestGateMatchesInlineWANLoop(t *testing.T) {
	ladder := modulation.Default()
	for trial := 0; trial < 40; trial++ {
		r := rng.New(uint64(0x6a7e + trial))
		nFibers, w := 2+r.Intn(12), 1+r.Intn(4)
		g, fiberOf := fiberNet(r, 3+r.Intn(8), nFibers)
		conf := make([]modulation.Gbps, nFibers*w)
		for c := range conf {
			conf[c] = 100
		}
		gt, err := New(Settings{Ladder: ladder, Penalty: core.PenaltyTrafficProportional, Hold: 1}, g, fiberOf, w, conf)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefLoop(t, g, fiberOf, nFibers, w)
		snr := make([]float64, len(conf))
		for c := range snr {
			snr[c] = r.Uniform(-1, 20)
		}
		traffic := make([]float64, g.NumEdges())
		feasibleAt := func(f, wl int) modulation.Gbps {
			m, ok := ladder.FeasibleCapacity(snr[f*w+wl])
			if !ok {
				return 0
			}
			return m.Capacity
		}
		for round := 0; round < 30; round++ {
			snrWalk(r, snr)
			for e := range traffic {
				traffic[e] = float64(r.Intn(300))
			}
			for c, s := range snr {
				gt.Observe(c, s)
			}
			forced, err := gt.Settle(traffic)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.settle(feasibleAt, traffic); err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("trial %d round %d", trial, round)
			sameOrders(t, where+" settle", forced, ref.orders, w)
			for id := 0; id < ref.aug.G.NumEdges(); id++ {
				if a, b := gt.Aug.G.Edge(graph.EdgeID(id)), ref.aug.G.Edge(graph.EdgeID(id)); a != b {
					t.Fatalf("%s: augmented edge %d = %+v, inline loop %+v", where, id, a, b)
				}
			}
			dec := randomDecision(r, gt)
			if cut, err := gt.Cut(dec); cut || err != nil {
				t.Fatalf("%s: Cut without a budget = %v, %v", where, cut, err)
			}
			upgrades := gt.Commit(dec)
			ref.commit(feasibleAt, dec)
			sameOrders(t, where+" commit", upgrades, ref.orders, w)
			for c := range conf {
				if conf[c] != ref.configured[c/w][c%w] {
					t.Fatalf("%s: channel %d configured %v, inline loop %v", where, c, conf[c], ref.configured[c/w][c%w])
				}
			}
			for e, v := range gt.Verdicts {
				upgraded := v == VerdictUpgraded
				forced := v == VerdictForcedDowngrade
				if upgraded != ref.upgraded[e] || !upgraded && forced != ref.forced[fiberOf[e]] {
					t.Fatalf("%s: edge %d verdict %v, inline loop upgraded=%v forced=%v",
						where, e, v, ref.upgraded[e], ref.forced[fiberOf[e]])
				}
				idle := !upgraded && !forced && ref.top.Upgrades[graph.EdgeID(e)].ExtraCapacity > 0
				if idle != (v == VerdictOffered) {
					t.Fatalf("%s: edge %d verdict %v, inline loop headroom-idle=%v", where, e, v, idle)
				}
			}
		}
	}
}

// sameOrders compares the gate's orders with the inline loop's.
func sameOrders(t *testing.T, where string, got []Order, want []string, w int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d orders, inline loop %d: %v vs %v", where, len(got), len(want), got, want)
	}
	for i, o := range got {
		if s := fmt.Sprintf("%d/%d %v->%v %s", o.Channel/w, o.Channel%w, o.From, o.To, o.Kind); s != want[i] {
			t.Fatalf("%s: order %d = %s, inline loop %s", where, i, s, want[i])
		}
	}
}
