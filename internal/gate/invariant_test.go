package gate

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/modulation"
	"repro/internal/rng"
	"repro/internal/te"
)

// oneToOneNet is the controller's shape: every directed edge is its own
// one-wavelength fiber.
func oneToOneNet(r *rng.Source, n, nEdges int) (*graph.Graph, []int) {
	g := graph.New()
	g.AddNodes(n)
	fiberOf := make([]int, nEdges)
	for e := range fiberOf {
		u := r.Intn(n)
		v := (u + 1 + r.Intn(n-1)) % n
		g.AddEdge(graph.Edge{From: graph.NodeID(u), To: graph.NodeID(v), Weight: 1})
		fiberOf[e] = e
	}
	return g, fiberOf
}

// TestGateSafeguardInvariants drives the gate with random hold-down,
// margin, floor, damping, budget and pins, in the controller's 1:1 shape
// and in wan's fiber × wavelengths shape, under SNR walks and random
// decisions, and checks after every round that
//   - no unpinned channel stays above feasible(SNR − margin);
//   - TE-decided upgrades never exceed the budget;
//   - every upgraded channel had at least Hold qualifying observations;
//   - no channel that was damped when its headroom was offered is
//     raised by an upgrade.
//
// The qualifying streaks and the pinned set are tracked here, from the
// inputs and the orders alone.
func TestGateSafeguardInvariants(t *testing.T) {
	ladder := modulation.Default()
	for trial := 0; trial < 60; trial++ {
		r := rng.New(uint64(0x1a7 + trial))
		var g *graph.Graph
		var fiberOf []int
		w, nFibers := 1, 0
		if trial%2 == 0 {
			nFibers = 3 + r.Intn(10)
			g, fiberOf = oneToOneNet(r, 3+r.Intn(6), nFibers)
		} else {
			nFibers, w = 2+r.Intn(8), 1+r.Intn(4)
			g, fiberOf = fiberNet(r, 3+r.Intn(6), nFibers)
		}
		s := Settings{
			Ladder:   ladder,
			Penalty:  core.PenaltyTrafficProportional,
			Hold:     1 + r.Intn(4),
			MargindB: []float64{0, 0.25, 0.5, 1}[r.Intn(4)],
			Budget:   r.Intn(4),
		}
		if r.Bernoulli(0.5) {
			s.Floor = 100
		}
		conf := make([]modulation.Gbps, nFibers*w)
		for c := range conf {
			conf[c] = 100
		}
		gt, err := New(s, g, fiberOf, w, conf)
		if err != nil {
			t.Fatal(err)
		}
		if r.Bernoulli(0.5) {
			gt.EnableDamping(DampingConfig{
				PenaltyPerChange:  1000,
				SuppressThreshold: 1000 + r.Uniform(0, 2000),
				ReuseThreshold:    r.Uniform(100, 900),
				DecayFactor:       r.Uniform(0.5, 0.95),
			})
		}
		held := make([]bool, nFibers)
		where := fmt.Sprintf("trial %d (hold %d, margin %v dB, floor %v, budget %d, damping %v, wavelengths %d)",
			trial, s.Hold, s.MargindB, s.Floor, s.Budget, gt.damping != nil, w)
		feasible := func(snrdB float64) modulation.Gbps {
			m, ok := ladder.FeasibleCapacity(snrdB - s.MargindB)
			if !ok {
				return 0
			}
			return m.Capacity
		}
		snr := make([]float64, len(conf))
		for c := range snr {
			snr[c] = r.Uniform(-1, 20)
		}
		streak := make([]int, len(conf))
		damped := make([]bool, len(conf))
		traffic := make([]float64, g.NumEdges())
		for round := 0; round < 40; round++ {
			if round%10 == 0 { // pin a new set of flows
				clear(held)
				for e := range gt.Pinned {
					gt.Pinned[e] = 0
					if r.Bernoulli(0.15) {
						gt.Pinned[e] = float64(10 * (1 + r.Intn(5)))
						held[fiberOf[e]] = true
					}
				}
			}
			snrWalk(r, snr)
			for c := range snr {
				if feasible(snr[c]) > conf[c] {
					streak[c]++
				} else {
					streak[c] = 0
				}
				gt.Observe(c, snr[c])
			}
			for e := range traffic {
				traffic[e] = float64(r.Intn(300))
			}
			orders, err := gt.settle(traffic)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range orders {
				if held[o.Channel/w] {
					t.Fatalf("%s round %d: order %+v on a pinned fiber", where, round, o)
				}
				if o.Kind == ForcedDowngrade {
					streak[o.Channel] = 0
				}
			}
			for c := range damped {
				damped[c] = gt.Suppressed(c)
			}
			// A cut withdraws every fake edge but the kept ones, so any
			// decision the TE can make on the re-solve fits the budget.
			dec := randomDecision(r, gt)
			for solves := 1; ; solves++ {
				cut, err := gt.cut(dec)
				if err != nil {
					t.Fatal(err)
				}
				if !cut {
					break
				}
				if solves == 2 {
					t.Fatalf("%s round %d: the re-solve after a cut was cut again", where, round)
				}
				dec = randomDecision(r, gt)
			}
			if s.Budget > 0 && len(dec.Changes) > s.Budget {
				t.Fatalf("%s round %d: %d TE-decided upgrades over budget %d", where, round, len(dec.Changes), s.Budget)
			}
			for _, o := range gt.commit(dec) {
				c := o.Channel
				if streak[c] < s.Hold {
					t.Fatalf("%s round %d: channel %d upgraded after %d qualifying observations, hold %d", where, round, c, streak[c], s.Hold)
				}
				if damped[c] {
					t.Fatalf("%s round %d: damped channel %d upgraded", where, round, c)
				}
				if held[c/w] || o.To <= o.From {
					t.Fatalf("%s round %d: bad upgrade %+v", where, round, o)
				}
				streak[c] = 0
			}
			upgraded := 0
			for _, v := range gt.Verdicts {
				if v == VerdictUpgraded {
					upgraded++
				}
			}
			if s.Budget > 0 && upgraded > s.Budget {
				t.Fatalf("%s round %d: %d edges upgraded, budget %d", where, round, upgraded, s.Budget)
			}
			for c := range conf {
				if !held[c/w] && conf[c] > feasible(snr[c]) {
					t.Fatalf("%s round %d: channel %d configured %v above feasible %v", where, round, c, conf[c], feasible(snr[c]))
				}
			}
		}
	}
}

// TestGateRoundAllocatesNothing: once its buffers have grown, a round —
// every channel observed, then Round with a warm greedy, cuts included —
// allocates nothing, with every safeguard on.
func TestGateRoundAllocatesNothing(t *testing.T) {
	r := rng.New(7)
	g, fiberOf := fiberNet(r, 8, 12)
	const w = 4
	conf := make([]modulation.Gbps, 12*w)
	for c := range conf {
		conf[c] = 100
	}
	gt, err := New(Settings{Ladder: modulation.Default(), Penalty: core.PenaltyTrafficProportional,
		Hold: 2, MargindB: 0.5, Floor: 100, Budget: 1}, g, fiberOf, w, conf)
	if err != nil {
		t.Fatal(err)
	}
	gt.EnableDamping(DampingConfig{})
	gt.Pinned[3] = 20
	var demands []te.Demand
	for u := 0; u < 8; u++ {
		demands = append(demands, te.Demand{Src: graph.NodeID(u), Dst: graph.NodeID((u + 3) % 8), Volume: 150})
	}
	alg := te.NewWarm(te.Greedy{})
	snr := make([]float64, len(conf))
	traffic := make([]float64, g.NumEdges())
	dec := &core.Decision{}
	cuts := 0
	round := func() {
		snrWalk(r, snr)
		for c, s := range snr {
			gt.Observe(c, s)
		}
		if _, err := gt.Round(alg, demands, traffic, dec); err != nil {
			t.Fatal(err)
		}
		for _, v := range gt.Verdicts {
			if v == VerdictBudgetDropped {
				cuts++
				break
			}
		}
		copy(traffic, dec.EdgeFlow)
	}
	for i := 0; i < 100; i++ {
		round()
	}
	if cuts == 0 {
		t.Fatal("no round was cut: the budget path went unmeasured")
	}
	if a := testing.AllocsPerRun(200, round); a != 0 {
		t.Fatalf("a gate round allocates %v times", a)
	}
}
