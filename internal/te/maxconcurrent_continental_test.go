package te_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/te"
	"repro/internal/wan"
)

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
		m := te.MaxConcurrent{Epsilon: []float64{0.1, 0.2}[round%2]}
		if !te.MatchesRef(t, fmt.Sprintf("round %d", round), m, aug.G, demands) {
			t.Fatalf("round %d shipped nothing", round)
		}
	}
}
