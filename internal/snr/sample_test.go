package snr

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// sampleOracleParams is a fiber whose dips are frequent enough that a
// few thousand samples hold loss-of-light, partial, fiber-level and
// merged dips on every wavelength, with a length-aware-style baseline
// (a mean set per fiber, a narrow per-wavelength spread). Jitter is
// zeroed and wavelength-local dips are off: those are the draws a stride
// makes fewer of or makes later, so only with them gone are
// SampleFiber's samples GenerateFiber's bit for bit.
func sampleOracleParams(baselinedB float64) FiberParams {
	fp := DefaultFiberParams()
	fp.Wavelengths = 4
	fp.BaselineMeandB = baselinedB
	fp.BaselineStddB = 0.8
	fp.JitterLogSigma = 0
	fp.FiberDipsPerYear = 700
	fp.FiberLossOfLightProb = 0.3
	fp.Wavelength.JitterStd = 0
	fp.Wavelength.DipsPerYear = 0
	return fp
}

// TestSampleFiberMatchesGenerateFiber holds SampleFiber's strided path
// to the full series at strides that divide n and ones that do not,
// ones past n among them, with the jitter zeroed and only fiber-level
// dips: every kept sample (baseline, seasonal term, dips) equal bit for
// bit, and the source left at the same place. Each of these fails it: a
// dip applied through End inclusive, the seasonal term taken at k
// instead of at k·stride. With the jitter on, stride 1 must still be
// GenerateFiber's series bit for bit.
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
	jittered := DefaultFiberParams()
	jittered.Wavelengths = 4
	for trial := 0; trial < 12; trial++ {
		seed := pick.Uint64()
		fp := sampleOracleParams(pick.Uniform(8, 22))
		rounds := 40 + pick.Intn(80)
		n := 24*rounds + pick.Intn(24) // divisible by 24 one time in 24
		for _, stride := range []int{24, 1, 2 + pick.Intn(60), n - pick.Intn(n/2), n, n + 1 + pick.Intn(n)} {
			check(fp, n, stride, seed)
		}
		check(fp, rounds, 1, seed) // one sample per round
		check(jittered, n, 1, seed)
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

// TestGenerateFiberDigest pins GenerateFiber's bytes (every sample and
// every dip of every wavelength) for a quarter-year default fiber at a
// few seeds. The digests were recorded before SampleFiber stepped the
// jitter a stride at a time: the stride-1 series, which the dataset and
// the figures read, must not move with the strided path.
func TestGenerateFiberDigest(t *testing.T) {
	for _, tc := range []struct {
		seed   uint64
		digest uint64
	}{
		{1, 0xf9abbd6c4623f537},
		{757, 0x3b0a82340889abbf},
		{2017, 0x2473109879a94d04},
	} {
		f, err := GenerateFiber(DefaultFiberParams(), samplesPerYear/4, rng.New(tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		put := func(u uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, u)) }
		for _, s := range f.Series {
			for _, v := range s.Samples {
				put(math.Float64bits(v))
			}
			for _, d := range s.Dips {
				put(uint64(d.Start))
				put(uint64(d.End))
				put(uint64(d.Kind))
				put(math.Float64bits(d.DepthdB))
			}
		}
		if got := h.Sum64(); got != tc.digest {
			t.Errorf("seed %d: GenerateFiber digest %#x, want %#x", tc.seed, got, tc.digest)
		}
	}
}

// TestSampleFiberJitterLaw holds the stride-24 jitter to the stride-1
// series subsampled every 24 samples, in law. With the jitter the only
// random term (no dips, no seasonal drift, one baseline, one jitter
// std), each side draws 4 000 independent series of 40 kept samples
// (500 fibers of 8 wavelengths, disjoint seeds). Per series it takes
// the mean, the variance about the baseline and the lag-1
// autocovariance over the stationary std² (whose mean is
// φ²⁴ ≈ 0.481). The bound, fixed before the run, is 4 standard errors
// from the across-series spread: each side's average must lie within
// it of the exact value (0, JitterStd², φ²⁴), and the two sides'
// averages within it of each other. A step that keeps the one-step
// innovation std or the one-step φ fails every check on the variance or
// the autocorrelation by tens of standard errors.
func TestSampleFiberJitterLaw(t *testing.T) {
	const (
		rounds = 40
		stride = 24
		fibers = 500
		bound  = 4.0
	)
	fp := DefaultFiberParams()
	fp.Wavelengths = 8
	fp.BaselineStddB = 0
	fp.JitterLogSigma = 0
	fp.FiberDipsPerYear = 0
	fp.Wavelength.SeasonalAmpdB = 0
	fp.Wavelength.DipsPerYear = 0
	sigma, phi := fp.Wavelength.JitterStd, fp.Wavelength.JitterPhi
	rho := math.Pow(phi, stride)

	// moments accumulates one statistic's per-series values.
	type moments struct{ n, sum, sumSq float64 }
	add := func(m *moments, v float64) { m.n, m.sum, m.sumSq = m.n+1, m.sum+v, m.sumSq+v*v }
	mean := func(m moments) float64 { return m.sum / m.n }
	se := func(m moments) float64 { return math.Sqrt((m.sumSq/m.n - mean(m)*mean(m)) / (m.n - 1)) }
	names := []string{"mean", "variance", "lag-1 autocorrelation"}
	want := []float64{0, sigma * sigma, rho}

	side := func(seed0 uint64, kept func(FiberParams, uint64) [][]float64) []moments {
		st := make([]moments, len(names))
		for f := uint64(0); f < fibers; f++ {
			for _, row := range kept(fp, seed0+f) {
				var m, v, c float64
				for k, x := range row {
					x -= fp.BaselineMeandB
					m += x
					v += x * x
					if k > 0 {
						c += x * (row[k-1] - fp.BaselineMeandB)
					}
				}
				add(&st[0], m/rounds)
				add(&st[1], v/rounds)
				add(&st[2], c/(rounds-1)/(sigma*sigma))
			}
		}
		return st
	}
	strided := side(1, func(fp FiberParams, seed uint64) [][]float64 {
		rows, err := SampleFiber(fp, stride*rounds, stride, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return rows
	})
	subsampled := side(1<<32, func(fp FiberParams, seed uint64) [][]float64 {
		f, err := GenerateFiber(fp, stride*rounds, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]float64, len(f.Series))
		for w, s := range f.Series {
			for i := 0; i < len(s.Samples); i += stride {
				rows[w] = append(rows[w], s.Samples[i])
			}
		}
		return rows
	})
	for i, name := range names {
		a, b := strided[i], subsampled[i]
		t.Logf("%s: stride %d %.5f ± %.5f, stride 1 subsampled %.5f ± %.5f, exact %.5f", name, stride, mean(a), se(a), mean(b), se(b), want[i])
		for _, m := range []moments{a, b} {
			if d := math.Abs(mean(m) - want[i]); d > bound*se(m) {
				t.Errorf("%s: %.5f is %.1f standard errors from the exact %.5f", name, mean(m), d/se(m), want[i])
			}
		}
		if d, s := math.Abs(mean(a)-mean(b)), math.Hypot(se(a), se(b)); d > bound*s {
			t.Errorf("%s: stride %d %.5f and stride 1 subsampled %.5f differ by %.1f standard errors", name, stride, mean(a), mean(b), d/s)
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
