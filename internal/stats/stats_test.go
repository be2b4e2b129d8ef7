package stats

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestSummarizeBasic(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("unexpected summary: %+v", s)
	}
	if !almostEqual(s.Std, math.Sqrt(2), 1e-12) {
		t.Fatalf("std = %v", s.Std)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 7 || s.Std != 0 || s.Median != 7 || s.Min != 7 || s.Max != 7 {
		t.Fatalf("unexpected summary: %+v", s)
	}
}

func TestQuantileEndpoints(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("p=0: %v", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Fatalf("p=1: %v", q)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if q := Quantile(xs, 0.25); !almostEqual(q, 2.5, 1e-12) {
		t.Fatalf("q(0.25) = %v", q)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestRange(t *testing.T) {
	r, err := Range([]float64{2, 9, -1, 4})
	if err != nil || r != 10 {
		t.Fatalf("range = %v, err = %v", r, err)
	}
	if _, err := Range(nil); err != ErrEmpty {
		t.Fatal("want ErrEmpty")
	}
}

func TestHDRFindsNarrowCluster(t *testing.T) {
	// 95 samples tightly clustered at ~10, 5 outliers spread far away.
	xs := make([]float64, 0, 100)
	for i := 0; i < 95; i++ {
		xs = append(xs, 10+float64(i)*0.01) // width 0.94
	}
	for _, o := range []float64{-50, -20, 40, 60, 80} {
		xs = append(xs, o)
	}
	h, err := HDR(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if h.Width() > 1.0 {
		t.Fatalf("HDR width = %v, want < 1 (cluster)", h.Width())
	}
	if h.Lo < 9 || h.Hi > 11 {
		t.Fatalf("HDR = %+v, want inside cluster", h)
	}
}

func TestHDRFullMass(t *testing.T) {
	xs := []float64{1, 5, 9}
	h, err := HDR(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.Lo != 1 || h.Hi != 9 {
		t.Fatalf("HDR(1.0) = %+v", h)
	}
}

func TestHDRErrors(t *testing.T) {
	if _, err := HDR(nil, 0.95); err != ErrEmpty {
		t.Fatal("want ErrEmpty")
	}
	if _, err := HDR([]float64{1}, 0); err == nil {
		t.Fatal("want mass error")
	}
	if _, err := HDR([]float64{1}, 1.5); err == nil {
		t.Fatal("want mass error")
	}
}

func TestHDRSingleSample(t *testing.T) {
	h, err := HDR([]float64{4.2}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if h.Lo != 4.2 || h.Hi != 4.2 || h.Width() != 0 {
		t.Fatalf("HDR of single sample: %+v", h)
	}
}

// Property: the HDR at mass m always contains at least ceil(m*N) samples,
// and no window of the same count is narrower.
func TestHDRProperty(t *testing.T) {
	r := rng.New(99)
	check := func(n int) bool {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		h, err := HDR(xs, 0.95)
		if err != nil {
			return false
		}
		k := int(math.Ceil(0.95 * float64(n)))
		inside := 0
		for _, x := range xs {
			if x >= h.Lo && x <= h.Hi {
				inside++
			}
		}
		if inside < k {
			return false
		}
		// Verify minimality against brute force over sorted windows.
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for i := 0; i+k-1 < len(sorted); i++ {
			if sorted[i+k-1]-sorted[i] < h.Width()-1e-12 {
				return false
			}
		}
		return true
	}
	for _, n := range []int{1, 2, 3, 10, 57, 200} {
		if !check(n) {
			t.Fatalf("HDR property violated for n=%d", n)
		}
	}
}

func TestCDFMonotone(t *testing.T) {
	c, err := NewCDF([]float64{5, 1, 3, 3, 8})
	if err != nil {
		t.Fatal(err)
	}
	prevX := math.Inf(-1)
	prevF := 0.0
	for _, p := range c.Points {
		if p.X <= prevX || p.F <= prevF {
			t.Fatalf("non-monotone CDF: %+v", c.Points)
		}
		prevX, prevF = p.X, p.F
	}
	if last := c.Points[len(c.Points)-1]; last.F != 1 {
		t.Fatalf("CDF does not end at 1: %v", last.F)
	}
}

func TestCDFAt(t *testing.T) {
	c, _ := NewCDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFDuplicatesCollapse(t *testing.T) {
	c, _ := NewCDF([]float64{2, 2, 2, 2})
	if len(c.Points) != 1 || c.Points[0].X != 2 || c.Points[0].F != 1 {
		t.Fatalf("duplicates not collapsed: %+v", c.Points)
	}
}

func TestCDFEmpty(t *testing.T) {
	if _, err := NewCDF(nil); err != ErrEmpty {
		t.Fatal("want ErrEmpty")
	}
}

func TestFractions(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if f := FractionAtLeast(xs, 3); f != 0.5 {
		t.Fatalf("FractionAtLeast = %v", f)
	}
	if f := FractionBelow(xs, 3); f != 0.5 {
		t.Fatalf("FractionBelow = %v", f)
	}
	if f := FractionAtLeast(nil, 3); f != 0 {
		t.Fatalf("empty FractionAtLeast = %v", f)
	}
}

func TestMeanSum(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Fatal("Mean wrong")
	}
}

func BenchmarkHDR10k(b *testing.B) {
	r := rng.New(1)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HDR(xs, 0.95); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCDF10k(b *testing.B) {
	r := rng.New(1)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCDF(xs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestApproxEqual(t *testing.T) {
	cases := []struct {
		a, b, rel float64
		want      bool
	}{
		{1, 1, 1e-9, true},
		{0, 0, 1e-9, true},
		{1, 1 + 1e-12, 1e-9, true},
		{1, 1 + 1e-6, 1e-9, false},
		{1e12, 1e12 + 1, 1e-9, true}, // relative scaling above 1
		{1e12, 1e12 + 1e4, 1e-9, false},
		{1e-12, 2e-12, 1e-9, true}, // absolute floor near zero
		{100, 125, 1e-9, false},    // adjacent ladder denominations separate
		{math.Inf(1), math.Inf(1), 1e-9, true},
		{math.Inf(1), math.Inf(-1), 1e-9, false},
		{math.NaN(), math.NaN(), 1e-9, false},
		{math.NaN(), 1, 1e-9, false},
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b, c.rel); got != c.want {
			t.Errorf("ApproxEqual(%v, %v, %v) = %v, want %v", c.a, c.b, c.rel, got, c.want)
		}
	}
}

func TestApproxInDelta(t *testing.T) {
	cases := []struct {
		a, b, delta float64
		want        bool
	}{
		{100, 100, 0, true},
		{100, 100.5, 1, true},
		{100, 101.5, 1, false},
		{-3, 3, 6, true},
		{math.Inf(1), math.Inf(1), 0, true},
		{math.NaN(), math.NaN(), 1, false},
	}
	for _, c := range cases {
		if got := ApproxInDelta(c.a, c.b, c.delta); got != c.want {
			t.Errorf("ApproxInDelta(%v, %v, %v) = %v, want %v", c.a, c.b, c.delta, got, c.want)
		}
	}
}
