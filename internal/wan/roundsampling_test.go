package wan

// Regression tests for the TE-round telemetry sampling (ISSUE 3). The
// old integer stride (nSamples / rounds) never visited the final
// nSamples % rounds samples of the generated SNR horizon, so dips in
// that tail were invisible to every policy.

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/snr"
)

// TestRoundSampleIndex pins the index map: identical to the old stride
// whenever rounds divides nSamples (same-seed goldens unchanged), and
// full-horizon coverage when it does not. The coverage assertions FAIL
// against the pre-fix rule r*(nSamples/rounds).
func TestRoundSampleIndex(t *testing.T) {
	// Divisible: the default cadence (RoundInterval a multiple of the
	// 15-minute telemetry interval) must keep its historical indices.
	for r := 0; r < 12; r++ {
		if got, want := roundSampleIndex(r, 12, 288), r*24; got != want {
			t.Fatalf("divisible case: round %d -> %d, want %d", r, got, want)
		}
	}
	// Non-divisible: 26 samples over 4 rounds. The old stride visited
	// {0,6,12,18}, never the last 7 samples.
	want := []int{0, 6, 13, 19}
	for r, w := range want {
		if got := roundSampleIndex(r, 4, 26); got != w {
			t.Fatalf("round %d -> %d, want %d", r, got, w)
		}
	}
	// Property sweep: indices stay in range, never decrease, and the
	// uncovered tail is smaller than one round's worth of samples.
	for _, tc := range []struct{ rounds, n int }{
		{4, 26}, {7, 100}, {3, 8}, {12, 288}, {5, 5}, {9, 35040},
	} {
		prev := -1
		for r := 0; r < tc.rounds; r++ {
			i := roundSampleIndex(r, tc.rounds, tc.n)
			if i < 0 || i >= tc.n {
				t.Fatalf("rounds=%d n=%d: index %d out of range", tc.rounds, tc.n, i)
			}
			if i < prev {
				t.Fatalf("rounds=%d n=%d: index decreased %d -> %d", tc.rounds, tc.n, prev, i)
			}
			prev = i
		}
		if tail := tc.n - 1 - prev; tail >= (tc.n+tc.rounds-1)/tc.rounds {
			t.Fatalf("rounds=%d n=%d: final %d samples unreachable", tc.rounds, tc.n, tail)
		}
	}
}

// TestRoundSamplingTailDipAffectsMetrics rebuilds the simulation's SNR
// table with the old stride and shows that a dip in the previously
// unreachable tail window now changes round metrics. Seed 117 places a
// dip over sample 19 of a 26-sample horizon (4 rounds x 100 min): the
// old stride sampled {0,6,12,18} and never saw it. Against the pre-fix
// code both the snrAt assertions and the metrics comparison fail
// (NewSimulation would reproduce exactly the old-stride table).
func TestRoundSamplingTailDipAffectsMetrics(t *testing.T) {
	cfg := SimConfig{
		Net:            Abilene(2),
		Rounds:         4,
		RoundInterval:  100 * time.Minute, // 400 min => 26 samples, 26 % 4 = 2
		Seed:           117,
		DemandFraction: 0.5,
	}
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Regenerate the identical fiber series (same seed, same split
	// order as NewSimulation) and resample them with the old stride.
	c2 := cfg
	c2.applyDefaults()
	nSamples := snr.SamplesFor(time.Duration(c2.Rounds) * c2.RoundInterval)
	if nSamples%c2.Rounds == 0 {
		t.Fatalf("test config must leave a stride remainder, nSamples=%d", nSamples)
	}
	stride := nSamples / c2.Rounds
	oldMax := (c2.Rounds - 1) * stride
	root := rng.New(c2.Seed)
	simOld := &Simulation{cfg: sim.cfg, ladder: sim.ladder, demandsBase: sim.demandsBase}
	simOld.snrAt = make([][][]float64, c2.Net.NumFibers)
	tailDip := false
	fp := snr.DefaultFiberParams()
	fp.Wavelengths = c2.Net.Wavelengths
	for f := 0; f < c2.Net.NumFibers; f++ {
		fiber, err := snr.GenerateFiber(fp, nSamples, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		simOld.snrAt[f] = make([][]float64, c2.Net.Wavelengths)
		for w, s := range fiber.Series {
			row := make([]float64, c2.Rounds)
			for r := 0; r < c2.Rounds; r++ {
				row[r] = s.Samples[r*stride]
				// The real simulation must observe the new indices.
				if got, want := sim.snrAt[f][w][r], s.Samples[roundSampleIndex(r, c2.Rounds, nSamples)]; got != want {
					t.Fatalf("fiber %d wavelength %d round %d: snrAt %v, want sample %v", f, w, r, got, want)
				}
			}
			simOld.snrAt[f][w] = row
			for _, d := range s.Dips {
				if d.Start <= oldMax+1 && d.End > oldMax+1 {
					tailDip = true
				}
			}
		}
	}
	if !tailDip {
		t.Fatal("seed 117 no longer places a dip in the stride-remainder tail; re-hunt the seed")
	}

	resNew, err := sim.Run(PolicyDynamic)
	if err != nil {
		t.Fatal(err)
	}
	resOld, err := simOld.Run(PolicyDynamic)
	if err != nil {
		t.Fatal(err)
	}
	last := c2.Rounds - 1
	mn, mo := resNew.Rounds[last], resOld.Rounds[last]
	if mn.CapacityGbps == mo.CapacityGbps && mn.ShippedGbps == mo.ShippedGbps && mn.LinksDark == mo.LinksDark {
		t.Fatalf("tail dip did not affect final-round metrics: new %+v old %+v", mn, mo)
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
