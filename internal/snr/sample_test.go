package snr

import (
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// sampleOracleParams is a fiber whose dips are frequent enough that a
// few thousand samples hold loss-of-light, partial, fiber-level and
// merged dips on every wavelength, with a length-aware-style baseline
// (a mean set per fiber, a narrow per-wavelength spread).
func sampleOracleParams(baselinedB float64) FiberParams {
	fp := DefaultFiberParams()
	fp.Wavelengths = 4
	fp.BaselineMeandB = baselinedB
	fp.BaselineStddB = 0.8
	fp.FiberDipsPerYear = 300
	fp.FiberLossOfLightProb = 0.3
	fp.Wavelength.DipsPerYear = 400
	fp.Wavelength.LossOfLightProb = 0.3
	return fp
}

// roundIndices is wan's round sampling (round r reads sample
// r·n/rounds) at sizes small enough for plain int arithmetic.
func roundIndices(rounds, n int) []int {
	at := make([]int, rounds)
	for r := range at {
		at[r] = r * n / rounds
	}
	return at
}

// randomIndices draws a strictly ascending subset of [0, n) of
// density about 1/stride that always keeps the last sample.
func randomIndices(r *rng.Source, n, stride int) []int {
	var at []int
	for i := 0; i < n-1; i++ {
		if r.Intn(stride) == 0 {
			at = append(at, i)
		}
	}
	return append(at, n-1)
}

// dipEdgeIndices keeps, for every dip of every wavelength, the samples
// just before, at, at the end of and just after it, plus the last
// sample: where an off-by-one in the kept-index dip placement shows.
func dipEdgeIndices(f *Fiber, n int) []int {
	at := []int{n - 1}
	for _, s := range f.Series {
		for _, d := range s.Dips {
			for _, i := range []int{d.Start - 1, d.Start, d.End - 1, d.End} {
				if i >= 0 && i < n {
					at = append(at, i)
				}
			}
		}
	}
	slices.Sort(at)
	return slices.Compact(at)
}

// TestSampleFiberMatchesGenerateFiber holds SampleFiber to the full
// series: every kept sample equal bit for bit, and the source left at
// the same place. Each of these fails it: a dip applied through End
// inclusive, the seasonal term taken at k instead of at[k], and the
// normal draw skipped at unkept indices.
func TestSampleFiberMatchesGenerateFiber(t *testing.T) {
	type cover struct{ lossOfLight, partial, fiberLevel, merged, start, last, end1 int }
	var c cover
	check := func(name string, fp FiberParams, n int, seed uint64, at []int) {
		t.Helper()
		rFull, rKept := rng.New(seed), rng.New(seed)
		full, err := GenerateFiber(fp, n, rFull)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := SampleFiber(fp, n, rKept, at)
		if err != nil {
			t.Fatalf("%s seed %d: %v", name, seed, err)
		}
		if len(rows) != len(full.Series) {
			t.Fatalf("%s seed %d: %d rows, want %d", name, seed, len(rows), len(full.Series))
		}
		for w, s := range full.Series {
			if len(rows[w]) != len(at) {
				t.Fatalf("%s seed %d wavelength %d: %d samples, want %d", name, seed, w, len(rows[w]), len(at))
			}
			for k, i := range at {
				if got, want := rows[w][k], s.Samples[i]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s seed %d wavelength %d: sample %d (at[%d]) = %v, want %v", name, seed, w, i, k, got, want)
				}
			}
			for _, d := range s.Dips {
				lo, _ := slices.BinarySearch(at, d.Start)
				hi, _ := slices.BinarySearch(at, d.End)
				if lo == hi {
					continue
				}
				if d.Kind == DipLossOfLight {
					c.lossOfLight++
				} else {
					c.partial++
				}
				if d.FiberLevel {
					c.fiberLevel++
					if !slices.ContainsFunc(full.FiberDips, func(fd Dip) bool { return fd.Start == d.Start && fd.End == d.End }) {
						c.merged++
					}
				}
				if at[lo] == d.Start {
					c.start++
				}
				if at[hi-1] == d.End-1 {
					c.end1++
					if d.End == n {
						c.last++
					}
				}
			}
		}
		if a, b := rFull.Uint64(), rKept.Uint64(); a != b {
			t.Fatalf("%s seed %d: source left at %#x, GenerateFiber leaves it at %#x", name, seed, b, a)
		}
	}

	pick := rng.New(39)
	for trial := 0; trial < 12; trial++ {
		seed := pick.Uint64()
		fp := sampleOracleParams(pick.Uniform(8, 22))
		rounds := 40 + pick.Intn(80)
		n := 24*rounds + 1 + pick.Intn(23) // 0 < n % rounds < 24
		check("round cadence", fp, n, seed, roundIndices(rounds, n))
		check("one sample per round", fp, rounds, seed, roundIndices(rounds, rounds))
		check("random", fp, n, seed, randomIndices(pick, n, 1+pick.Intn(30)))
		full, err := GenerateFiber(fp, n, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		check("dip edges", fp, n, seed, dipEdgeIndices(full, n))
		check("every sample", fp, n, seed, roundIndices(n, n))
	}
	// The sweep must reach every dip shape through kept samples, or the
	// equality above proves nothing about the kept-index dip path.
	if c.lossOfLight == 0 || c.partial == 0 || c.fiberLevel == 0 || c.merged == 0 || c.start == 0 || c.end1 == 0 || c.last == 0 {
		t.Fatalf("sweep went dead: kept samples covered %+v; raise the dip rates", c)
	}

	// An index list that is not strictly ascending inside [0, n) is an
	// error, not a panic; nil asks for no samples.
	fp := DefaultFiberParams()
	fp.Wavelengths = 2
	for _, at := range [][]int{
		{3, 2},      // unsorted
		{1, 4, 4},   // duplicate
		{-1, 5},     // below the horizon
		{0, 5, 100}, // at the horizon end
	} {
		if _, err := SampleFiber(fp, 100, rng.New(1), at); err == nil {
			t.Errorf("SampleFiber(at=%v) returned no error", at)
		}
	}
	rows, err := SampleFiber(fp, 100, rng.New(1), nil)
	if err != nil || len(rows) != 2 || len(rows[0]) != 0 {
		t.Fatalf("SampleFiber(at=nil) = %v, %v; want 2 empty rows", rows, err)
	}
}

// benchFiber is one fiber of the greedy benchmark's shape: 8
// wavelengths over a 1 600-round horizon at 24 samples per round.
func benchFiber() (FiberParams, int, []int) {
	const rounds = 1600
	fp := DefaultFiberParams()
	fp.Wavelengths = 8
	n := 24 * rounds
	return fp, n, roundIndices(rounds, n)
}

func BenchmarkGenerateFiber(b *testing.B) {
	fp, n, _ := benchFiber()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateFiber(fp, n, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampleFiber(b *testing.B) {
	fp, n, at := benchFiber()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SampleFiber(fp, n, rng.New(uint64(i)), at); err != nil {
			b.Fatal(err)
		}
	}
}
