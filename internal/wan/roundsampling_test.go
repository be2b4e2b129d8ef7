package wan

import (
	"runtime"
	"testing"

	"repro/internal/rng"
	"repro/internal/snr"
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
