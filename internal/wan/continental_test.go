package wan

import (
	"math"
	"strings"
	"testing"

	"repro/internal/te"
)

func TestContinentalValidation(t *testing.T) {
	if _, err := Continental(minContinentalNodes-1, 2, 1); err == nil {
		t.Fatal("accepted node count below the floor")
	}
	if _, err := Continental(maxContinentalNodes+1, 2, 1); err == nil {
		t.Fatal("accepted node count above the ceiling")
	}
	if _, err := Continental(64, 0, 1); err == nil {
		t.Fatal("accepted zero wavelengths")
	}
	if _, err := Continental(64, -3, 1); err == nil {
		t.Fatal("accepted negative wavelengths")
	}
}

func TestContinentalConnectedAndValid(t *testing.T) {
	net, err := Continental(96, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := net.G.NumNodes(); n != 96 {
		t.Fatalf("nodes = %d", n)
	}
	if !connected(net.G) {
		t.Fatal("continental backbone not connected")
	}
	// MST gives n-1 fibers; chords add up to n/2 more.
	if net.NumFibers < 95 || net.NumFibers > 95+48 {
		t.Fatalf("fibers = %d, want [95, 143]", net.NumFibers)
	}
	// IGP weights follow the 100 km-unit distance convention: positive,
	// floored at 0.5 (50 km), and bounded by the plane diagonal.
	diag := math.Hypot(5000, 3000) / 100
	for _, e := range net.G.Edges() {
		if e.Weight < 0.5-1e-9 || e.Weight > diag*1.5 {
			t.Fatalf("edge %d weight %v outside plausible distance range", e.ID, e.Weight)
		}
	}
}

func TestContinentalDeterministic(t *testing.T) {
	a, err := Continental(64, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Continental(64, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumFibers != b.NumFibers || a.G.NumEdges() != b.G.NumEdges() {
		t.Fatalf("same seed, different structure: %d/%d fibers, %d/%d edges",
			a.NumFibers, b.NumFibers, a.G.NumEdges(), b.G.NumEdges())
	}
	for _, e := range a.G.Edges() {
		f := b.G.Edge(e.ID)
		if e.From != f.From || e.To != f.To || math.Float64bits(e.Weight) != math.Float64bits(f.Weight) {
			t.Fatalf("edge %d differs between same-seed builds", e.ID)
		}
	}
	for i := range a.NodeWeights {
		if math.Float64bits(a.NodeWeights[i]) != math.Float64bits(b.NodeWeights[i]) {
			t.Fatalf("node weight %d differs between same-seed builds", i)
		}
	}
	c, err := Continental(64, 3, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := a.NumFibers == c.NumFibers
	if same {
		for _, e := range a.G.Edges() {
			f := c.G.Edge(e.ID)
			if e.From != f.From || e.To != f.To || math.Float64bits(e.Weight) != math.Float64bits(f.Weight) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical topologies")
	}
}

// TestContinentalPaperScale pins the ISSUE acceptance floor: a
// 200-node continental backbone at 8 wavelengths carries at least
// 2000 fiber×wavelength links and runs a multi-round simulation.
func TestContinentalPaperScale(t *testing.T) {
	net, err := ParseTopology("continental:200", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if links := net.NumFibers * net.Wavelengths; links < 2000 {
		t.Fatalf("only %d fiber x wavelength links, want >= 2000", links)
	}
	sim, err := NewSimulation(SimConfig{
		Net:            net,
		Rounds:         3,
		Seed:           5,
		DemandFraction: 0.6,
		MaxDemands:     4 * net.G.NumNodes(),
		LengthAware:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(PolicyDynamic)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 3 {
		t.Fatalf("rounds = %d", len(res.Rounds))
	}
	for _, m := range res.Rounds {
		if m.ShippedGbps <= 0 || m.CapacityGbps <= 0 {
			t.Fatalf("degenerate round %+v at paper scale", m)
		}
	}
}

func TestParseTopology(t *testing.T) {
	ok := []struct {
		spec   string
		nodes  int
		fibers int
	}{
		{"abilene", 11, 14},
		{"us", 25, 35},
		{"random", 20, 0},
		{"random:16", 16, 0},
		{"continental:32", 32, 0},
	}
	for _, c := range ok {
		net, err := ParseTopology(c.spec, 2, 9)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if net.G.NumNodes() != c.nodes {
			t.Fatalf("%s: nodes = %d, want %d", c.spec, net.G.NumNodes(), c.nodes)
		}
		if c.fibers > 0 && net.NumFibers != c.fibers {
			t.Fatalf("%s: fibers = %d, want %d", c.spec, net.NumFibers, c.fibers)
		}
		if err := net.Validate(); err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
	}
	bad := []struct {
		spec string
		frag string
	}{
		{"ring", "unknown topology"},
		{"abilene:4", "takes no argument"},
		{"us:4", "takes no argument"},
		{"abilene:", "takes no argument"},
		{"us:", "takes no argument"},
		{"random:zero", "bad random node count"},
		{"random:-2", "bad random node count"},
		{"random:", "bad random node count"},
		{"random:+16", "bad random node count"},
		{"random:016", "bad random node count"},
		{"continental:", "needs a node count"},
		{"continental:+64", "bad continental node count"},
		{"continental:064", "bad continental node count"},
		{"continental", "needs a node count"},
		{"continental:abc", "bad continental node count"},
		{"continental:8", "16..4096 nodes"},
		{"random:2", "3..4096 nodes"},
		{"random:3", "at most 0 fit beside the ring"},
		{"random:4097", "3..4096 nodes"},
		{"random:100000", "3..4096 nodes"},
	}
	for _, c := range bad {
		_, err := ParseTopology(c.spec, 2, 9)
		if err == nil {
			t.Fatalf("%s: accepted", c.spec)
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Fatalf("%s: error %q missing %q", c.spec, err, c.frag)
		}
	}
	// Wavelength validation fires first, for every topology name.
	for _, spec := range []string{"abilene", "continental:32", "nonsense"} {
		_, err := ParseTopology(spec, 0, 9)
		if err == nil || !strings.Contains(err.Error(), "wavelength") {
			t.Fatalf("%s with 0 wavelengths: err = %v, want wavelength validation", spec, err)
		}
	}
}

func TestLargestDemands(t *testing.T) {
	d := []te.Demand{
		{Src: 3, Dst: 1, Volume: 5},
		{Src: 0, Dst: 2, Volume: 9},
		{Src: 2, Dst: 0, Volume: 5},
		{Src: 1, Dst: 3, Volume: 1},
		{Src: 3, Dst: 0, Volume: 5},
	}
	got := LargestDemands(d, 4)
	want := []te.Demand{
		{Src: 0, Dst: 2, Volume: 9},
		// Volume ties break ascending by (Src, Dst) for determinism.
		{Src: 2, Dst: 0, Volume: 5},
		{Src: 3, Dst: 0, Volume: 5},
		{Src: 3, Dst: 1, Volume: 5},
	}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Src != want[i].Src || got[i].Dst != want[i].Dst ||
			math.Float64bits(got[i].Volume) != math.Float64bits(want[i].Volume) {
			t.Fatalf("rank %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	if LargestDemands(d, 0) != nil {
		t.Fatal("k=0 should return nil")
	}
	if n := len(LargestDemands(d, 50)); n != len(d) {
		t.Fatalf("k>len returned %d demands", n)
	}
	if d[0].Src != 3 || d[0].Dst != 1 {
		t.Fatal("input slice mutated")
	}
}

func TestSimConfigMaxDemandsCapsBase(t *testing.T) {
	cfg := testSimConfig(t)
	full, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxDemands = 10
	capped, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.demandsBase) <= 10 {
		t.Fatalf("test needs > 10 base demands, got %d", len(full.demandsBase))
	}
	if len(capped.demandsBase) != 10 {
		t.Fatalf("capped base has %d demands, want 10", len(capped.demandsBase))
	}
	// The cap keeps exactly the largest demands.
	want := LargestDemands(full.demandsBase, 10)
	var wantVol, gotVol float64
	for i := range want {
		wantVol += want[i].Volume
		gotVol += capped.demandsBase[i].Volume
	}
	if math.Float64bits(wantVol) != math.Float64bits(gotVol) {
		t.Fatalf("capped volume %v != top-10 volume %v", gotVol, wantVol)
	}
}
