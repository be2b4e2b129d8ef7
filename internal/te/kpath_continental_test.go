package te_test

import (
	"testing"

	"repro/internal/daemon"
	"repro/internal/graph"
	"repro/internal/te"
	"repro/internal/wan"
)

// fillChecked wraps KPath for a wan.Simulation and holds every round's
// water-fill to the full-rescan reference (te.CheckKPathWaterFill).
type fillChecked struct {
	t             *testing.T
	rounds, saved int
}

func (c *fillChecked) Name() string { return te.KPath{}.Name() }

func (c *fillChecked) Allocate(g *graph.Graph, demands []te.Demand) (*te.Allocation, error) {
	saved, err := te.CheckKPathWaterFill(g, demands)
	if err != nil {
		c.t.Errorf("round %d: %v", c.rounds, err)
	}
	c.rounds++
	c.saved += saved
	return te.KPath{}.Allocate(g, demands)
}

// TestWaterFillMatchesReferenceContinental200 runs the continental-kpath
// golden's command line (continental:200, 8 wavelengths, length-aware,
// 3 rounds, every policy) with each round's water-fill held to the
// reference: bit-equal flows, the same sweeps and pushes, no more scans.
func TestWaterFillMatchesReferenceContinental200(t *testing.T) {
	if testing.Short() {
		t.Skip("continental:200 set-up takes seconds")
	}
	p := daemon.DefaultParams()
	p.Topology, p.Wavelengths, p.LengthAware, p.TE, p.Rounds, p.Policy = "continental:200", 8, true, "kpath", 3, "all"
	p, net, err := p.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := p.SimConfig(net)
	if err != nil {
		t.Fatal(err)
	}
	policies, err := p.Policies()
	if err != nil {
		t.Fatal(err)
	}
	alg := &fillChecked{t: t}
	cfg.TE = alg
	sim, err := wan.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunPolicies(policies); err != nil {
		t.Fatal(err)
	}
	if alg.rounds != 3*len(policies) || alg.saved == 0 {
		t.Fatalf("%d rounds checked, %d scans saved: want %d rounds and some saved", alg.rounds, alg.saved, 3*len(policies))
	}
}
