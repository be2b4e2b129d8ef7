package wan

import (
	"testing"

	"repro/internal/stats"
)

func TestLengthAwareBaselinesFollowDistance(t *testing.T) {
	cfg := SimConfig{
		Net:            Abilene(2),
		Rounds:         8,
		Seed:           3,
		DemandFraction: 0.5,
		LengthAware:    true,
	}
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Find the shortest and longest fibers by edge weight.
	net := cfg.Net
	shortest, longest := -1, -1
	var wMin, wMax float64
	for _, e := range net.G.Edges() {
		f := net.FiberOf[e.ID]
		if shortest < 0 || e.Weight < wMin {
			shortest, wMin = f, e.Weight
		}
		if longest < 0 || e.Weight > wMax {
			longest, wMax = f, e.Weight
		}
	}
	meanSNR := func(f int) float64 {
		var xs []float64
		for w := 0; w < net.Wavelengths; w++ {
			xs = append(xs, stats.Mean(sim.snrAt[f][w]))
		}
		return stats.Mean(xs)
	}
	sShort, sLong := meanSNR(shortest), meanSNR(longest)
	if sShort <= sLong {
		t.Fatalf("short fiber SNR %v not above long fiber SNR %v", sShort, sLong)
	}
	// Both deployed links clear the 100 Gbps threshold most of the time.
	if sLong < 6.5 {
		t.Fatalf("longest fiber mean SNR %v below deployment threshold", sLong)
	}
}

func TestLengthAwareSimulationRuns(t *testing.T) {
	cfg := SimConfig{
		Net:            USBackbone(2),
		Rounds:         6,
		Seed:           5,
		DemandFraction: 1.0,
		LengthAware:    true,
	}
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
	if dynamic.TotalShipped() < static.TotalShipped() {
		t.Fatalf("length-aware dynamic (%v) below static (%v)",
			dynamic.TotalShipped(), static.TotalShipped())
	}
}

func TestLengthAwareVsUniformHeadroom(t *testing.T) {
	// Length-aware mode must produce heterogeneous upgrade headroom:
	// at round 0 some fibers support 200G wavelengths and some do not.
	cfg := SimConfig{
		Net:            USBackbone(2),
		Rounds:         4,
		Seed:           7,
		DemandFraction: 0.5,
		LengthAware:    true,
	}
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	at200, below200 := 0, 0
	for f := 0; f < cfg.Net.NumFibers; f++ {
		if sim.FeasibleAt(f, 0, 0) >= 200 {
			at200++
		} else {
			below200++
		}
	}
	if at200 == 0 || below200 == 0 {
		t.Fatalf("no heterogeneity: %d fibers at 200G, %d below", at200, below200)
	}
}
