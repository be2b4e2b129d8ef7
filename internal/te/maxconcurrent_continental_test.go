package te_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/te"
	"repro/internal/wan"
)

// certified wraps a MaxConcurrent for a wan.Simulation and holds every
// round's λ to GK's own dual bound on the lengths the round ended with.
type certified struct {
	t      *testing.T
	rounds int
}

func (c *certified) Name() string { return te.MaxConcurrent{}.Name() }

func (c *certified) Allocate(g *graph.Graph, demands []te.Demand) (*te.Allocation, error) {
	a, lambda, bound, err := te.CertifiedAllocate(g, demands)
	if err != nil {
		return nil, err
	}
	e := te.GKEpsilon
	if floor := (1 - e) * (1 - e) * (1 - e) * min(bound, 1); !(lambda >= floor) {
		c.t.Errorf("round %d: λ = %v below (1−ε)³ of the dual bound %v", c.rounds, lambda, bound)
	}
	c.t.Logf("round %d: λ = %.5g, bound %.5g, λ/bound %.3f", c.rounds, lambda, bound, lambda/bound)
	c.rounds++
	return a, nil
}

// TestMaxConcurrentDualBoundContinental200 certifies the GK loop where
// the benchmark runs it: continental:200 at 8 wavelengths, the 800
// heaviest demands at 1.2× capacity, the dynamic policy's augmented
// graph. Every round's λ is at least (1−ε)³ of the upper bound
// D(l)/α(l) on the optimum that its final lengths give.
func TestMaxConcurrentDualBoundContinental200(t *testing.T) {
	if testing.Short() {
		t.Skip("continental:200 set-up takes seconds")
	}
	net, err := wan.ParseTopology("continental:200", 8, 2017)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{2017, 2018} {
		alg := &certified{t: t}
		sim, err := wan.NewSimulation(wan.SimConfig{
			Net:            net,
			Rounds:         3,
			Seed:           seed,
			DemandFraction: 1.2,
			DemandSigma:    0.1,
			MaxDemands:     4 * net.G.NumNodes(),
			Workers:        1,
			TE:             alg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(wan.PolicyDynamic); err != nil {
			t.Fatal(err)
		}
		if alg.rounds != 3 {
			t.Fatalf("seed %d: %d GK rounds, want 3", seed, alg.rounds)
		}
	}
}

// TestMaxConcurrentMatchesRefContinental64 holds the GK loop to its
// reference on what the WAN round hands it: the continental:64
// augmented graph — every fake edge parallel to a real one at equal
// length, so ties everywhere, idle fakes present at capacity 0 — under
// the capacity churn SNR drives from round to round.
func TestMaxConcurrentMatchesRefContinental64(t *testing.T) {
	net, err := wan.ParseTopology("continental:64", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	g := net.G.Clone()
	for id := 0; id < g.NumEdges(); id++ {
		g.SetCapacity(graph.EdgeID(id), 100*float64(net.Wavelengths))
	}
	top := core.NewTopology(g)
	aug, err := core.NewAugmenter(top, core.PenaltyTrafficProportional)
	if err != nil {
		t.Fatal(err)
	}
	all, err := wan.GravityTraffic(net, 1.2*g.TotalCapacity())
	if err != nil {
		t.Fatal(err)
	}
	demands := wan.LargestDemands(all, 256)

	r := rng.New(0x64c)
	for round := 0; round < 8; round++ {
		for id := 0; id < g.NumEdges(); id++ {
			eid := graph.EdgeID(id)
			switch {
			case r.Bernoulli(0.05):
				g.SetCapacity(eid, 0)
			case r.Bernoulli(0.3):
				g.SetCapacity(eid, 50*float64(1+r.Intn(4)))
			}
			extra := 0.0
			if r.Bernoulli(0.4) {
				extra = 50 * float64(1+r.Intn(2))
			}
			if err := top.SetUpgrade(eid, extra, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := aug.Refresh(); err != nil {
			t.Fatal(err)
		}
		eps := []float64{0.1, 0.2}[round%2]
		if !te.BoundsRef(t, fmt.Sprintf("round %d", round), eps, aug.G, demands) {
			t.Fatalf("round %d shipped nothing", round)
		}
	}
}

// TestWarmMaxConcurrentSteadyStateContinental200 holds a warm GK to
// what it keeps: on the benchmark's augmented continental:200 round (8
// wavelengths, every other link upgradable, the 800 heaviest demands at
// 1.2× capacity) every Allocate returns exactly the bits of a fresh
// MaxConcurrent, and the second one allocates under 64 KiB (it
// allocates nothing: the same graph and demands need no new slot, block
// or path room). The first call builds the state, about 3.4 MB, 2.1 MB
// of it the per-group flow blocks. A GK that builds its state every
// call allocates about 8.4 MB a call here (8.6 MB a round in the
// benchmark), 7.65 MB of it one float64 per (active demand, edge).
func TestWarmMaxConcurrentSteadyStateContinental200(t *testing.T) {
	if testing.Short() {
		t.Skip("continental:200 GK rounds take seconds")
	}
	net, err := wan.ParseTopology("continental:200", 8, 2017)
	if err != nil {
		t.Fatal(err)
	}
	g := net.G.Clone()
	for id := 0; id < g.NumEdges(); id++ {
		g.SetCapacity(graph.EdgeID(id), 100*8)
	}
	top := core.NewTopology(g)
	for id := 0; id < g.NumEdges(); id += 2 {
		if err := top.SetUpgrade(graph.EdgeID(id), 100, 1); err != nil {
			t.Fatal(err)
		}
	}
	aug, err := core.NewAugmenter(top, core.PenaltyTrafficProportional)
	if err != nil {
		t.Fatal(err)
	}
	all, err := wan.GravityTraffic(net, 1.2*g.TotalCapacity())
	if err != nil {
		t.Fatal(err)
	}
	demands := wan.LargestDemands(all, 800)

	warm := te.NewWarm(te.MaxConcurrent{})
	const bound = 64 << 10
	for call := 0; call < 2; call++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := warm.Allocate(aug.G, demands)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("call %d: %d bytes", call, bytes)
		want, err := te.MaxConcurrent{}.Allocate(aug.G, demands)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: warm allocation differs from a fresh one", call)
		}
		if call > 0 && bytes >= bound {
			t.Fatalf("call %d allocated %d bytes, want < %d", call, bytes, bound)
		}
	}
}
