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

// TestSampleFiberMatchesGenerateFiber holds SampleFiber to the full
// series at strides that divide n and ones that do not, ones past n
// among them: every kept sample equal bit for bit, and the source left
// at the same place. Each of these fails it: a dip applied through End
// inclusive, the seasonal term taken at k instead of at k·stride, and
// the normal draw skipped at unkept samples.
func TestSampleFiberMatchesGenerateFiber(t *testing.T) {
	type cover struct{ lossOfLight, partial, fiberLevel, merged, start, end1, after, last, ragged int }
	var c cover
	check := func(fp FiberParams, n, stride int, seed uint64) {
		t.Helper()
		rFull, rKept := rng.New(seed), rng.New(seed)
		full, err := GenerateFiber(fp, n, rFull)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := SampleFiber(fp, n, stride, rKept)
		if err != nil {
			t.Fatalf("n %d stride %d seed %d: %v", n, stride, seed, err)
		}
		if len(rows) != len(full.Series) {
			t.Fatalf("n %d stride %d seed %d: %d rows, want %d", n, stride, seed, len(rows), len(full.Series))
		}
		kept := (n + stride - 1) / stride
		if n%stride != 0 {
			c.ragged++
		}
		for w, s := range full.Series {
			if len(rows[w]) != kept {
				t.Fatalf("n %d stride %d seed %d wavelength %d: %d samples, want %d", n, stride, seed, w, len(rows[w]), kept)
			}
			for k, got := range rows[w] {
				if want := s.Samples[k*stride]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n %d stride %d seed %d wavelength %d: sample %d (position %d) = %v, want %v", n, stride, seed, w, k*stride, k, got, want)
				}
			}
			for _, d := range s.Dips {
				// The kept samples inside the dip, if any.
				lo, hi := (d.Start+stride-1)/stride, (d.End+stride-1)/stride
				if d.End%stride == 0 && d.End < n {
					c.after++ // the kept sample at End must stay undipped
				}
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
				if lo*stride == d.Start {
					c.start++
				}
				if (hi-1)*stride == d.End-1 {
					c.end1++
				}
				if d.End == n {
					c.last++
				}
			}
		}
		if a, b := rFull.Uint64(), rKept.Uint64(); a != b {
			t.Fatalf("n %d stride %d seed %d: source left at %#x, GenerateFiber leaves it at %#x", n, stride, seed, b, a)
		}
	}

	pick := rng.New(39)
	for trial := 0; trial < 12; trial++ {
		seed := pick.Uint64()
		fp := sampleOracleParams(pick.Uniform(8, 22))
		rounds := 40 + pick.Intn(80)
		n := 24*rounds + pick.Intn(24) // divisible by 24 one time in 24
		for _, stride := range []int{24, 1, 2 + pick.Intn(60), n - pick.Intn(n/2), n, n + 1 + pick.Intn(n)} {
			check(fp, n, stride, seed)
		}
		check(fp, rounds, 1, seed) // one sample per round
	}
	// Every (n, stride) pair of short horizons, strides past n included.
	fp := sampleOracleParams(12)
	fp.Wavelengths = 1
	for n := 1; n <= 48; n++ {
		for stride := 1; stride <= n+2; stride++ {
			check(fp, n, stride, uint64(n))
		}
	}
	// The sweep must reach every dip shape through kept samples, or the
	// equality above proves nothing about the strided dip path.
	if c.lossOfLight == 0 || c.partial == 0 || c.fiberLevel == 0 || c.merged == 0 || c.start == 0 || c.end1 == 0 || c.after == 0 || c.last == 0 || c.ragged == 0 {
		t.Fatalf("sweep went dead: kept samples covered %+v; raise the dip rates", c)
	}

	// A stride below 1 is an error, not a panic or an endless loop.
	for _, stride := range []int{0, -24} {
		if _, err := SampleFiber(fp, 100, stride, rng.New(1)); err == nil {
			t.Errorf("SampleFiber(stride=%d) returned no error", stride)
		}
	}
}

// benchFiber is one fiber of the greedy benchmark's shape: 8
// wavelengths over a 1 600-round horizon at 24 samples per round.
func benchFiber() (FiberParams, int) {
	fp := DefaultFiberParams()
	fp.Wavelengths = 8
	return fp, 24 * 1600
}

func BenchmarkGenerateFiber(b *testing.B) {
	fp, n := benchFiber()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateFiber(fp, n, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampleFiber(b *testing.B) {
	fp, n := benchFiber()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SampleFiber(fp, n, 24, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
