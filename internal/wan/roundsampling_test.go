package wan

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/snr"
	"repro/internal/te"
)

// TestRoundReadsFirstSampleOfItsInterval: round r observes telemetry
// sample 24·r of a horizon of 24·Rounds samples, as SampleFiber keeps
// it at stride 24 from the fiber's split of the seed, bit for bit.
func TestRoundReadsFirstSampleOfItsInterval(t *testing.T) {
	cfg := SimConfig{Net: Abilene(2), Rounds: 9, Seed: 117}
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(cfg.Seed)
	fp := snr.DefaultFiberParams()
	fp.Wavelengths = cfg.Net.Wavelengths
	for f := 0; f < cfg.Net.NumFibers; f++ {
		rows, err := snr.SampleFiber(fp, 24*cfg.Rounds, 24, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		for w, row := range rows {
			for r := 0; r < cfg.Rounds; r++ {
				if got, want := sim.snrAt[f][w][r], row[r]; got != want {
					t.Fatalf("fiber %d wavelength %d round %d: snrAt %v, want sample %d = %v", f, w, r, got, 24*r, want)
				}
			}
		}
	}
}

// TestNewSimulationKeepsOnlyRoundSamples: SNR pre-generation allocates
// about the rows it keeps (one sample per round, fiber and wavelength),
// not the 24-samples-a-round horizon those rows are read from. Building
// every wavelength's full series first allocates about 25× the rows.
func TestNewSimulationKeepsOnlyRoundSamples(t *testing.T) {
	cfg := SimConfig{Net: Abilene(2), Rounds: 2000, Workers: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sim, err := NewSimulation(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	rows := uint64(cfg.Net.NumFibers*cfg.Net.Wavelengths*cfg.Rounds) * 8
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d B for %d B of kept rows (%.2f×)", got, rows, float64(got)/float64(rows))
	if got > 2*rows {
		t.Fatalf("NewSimulation allocated %d B, want <= 2× the %d B of kept rows", got, rows)
	}
	if n := len(sim.snrAt[0][0]); n != cfg.Rounds {
		t.Fatalf("kept %d samples per wavelength, want one per round (%d)", n, cfg.Rounds)
	}
}

// TestNewSimulationKeepsOnlyCappedDemands: a capped run's set-up holds
// the demands it keeps, not the n(n−1) gravity matrix they are picked
// from. Materialising the matrix, its append growth included, and
// copying it to sort allocates about seven such slabs.
func TestNewSimulationKeepsOnlyCappedDemands(t *testing.T) {
	net, err := ParseTopology("continental:1000", 8, 2017)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig{Net: net, Rounds: 2, Seed: 2017, DemandFraction: 1.2, MaxDemands: 4000, Workers: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sim, err := NewSimulation(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	nodes := uint64(net.G.NumNodes())
	matrix := nodes * (nodes - 1) * uint64(unsafe.Sizeof(te.Demand{}))
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d B; the gravity matrix is %d B", got, matrix)
	if got >= matrix/10 {
		t.Fatalf("NewSimulation allocated %d B, want < a tenth of the %d B gravity matrix", got, matrix)
	}
	if n := len(sim.demandsBase); n != cfg.MaxDemands {
		t.Fatalf("kept %d demands, want %d", n, cfg.MaxDemands)
	}
}
