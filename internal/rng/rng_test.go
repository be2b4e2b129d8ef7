package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() && c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical streams")
	}
	// Splitting is deterministic: rebuild and compare.
	parent2 := New(7)
	d1 := parent2.Split()
	d2 := parent2.Split()
	r1 := New(7).Split() // consume same parent draws
	_ = r1
	for i := 0; i < 100; i++ {
		a, b := d1.Uint64(), d2.Uint64()
		_ = a
		_ = b
	}
	// Direct check: first child of seed 7 is always the same.
	e1 := New(7).Split()
	f1 := New(7).Split()
	for i := 0; i < 100; i++ {
		if e1.Uint64() != f1.Uint64() {
			t.Fatalf("first child of same parent diverged at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(9)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(17)
	for _, lambda := range []float64{0.5, 3, 12, 80} {
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
}

func TestPoissonZeroLambda(t *testing.T) {
	r := New(1)
	if v := r.Poisson(0); v != 0 {
		t.Fatalf("Poisson(0) = %d", v)
	}
	if v := r.Poisson(-3); v != 0 {
		t.Fatalf("Poisson(-3) = %d", v)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(29)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(31)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestCategoricalDistribution(t *testing.T) {
	r := New(37)
	w := []float64{1, 2, 7}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Categorical(w)]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("bucket %d rate = %v, want %v", i, got, want)
		}
	}
}

func TestCategoricalSkipsZeroWeight(t *testing.T) {
	r := New(41)
	w := []float64{0, 5, 0}
	for i := 0; i < 1000; i++ {
		if got := r.Categorical(w); got != 1 {
			t.Fatalf("Categorical([0 5 0]) = %d", got)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	for _, w := range [][]float64{nil, {}, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Categorical(%v) did not panic", w)
				}
			}()
			New(1).Categorical(w)
		}()
	}
}

func TestParetoAboveScale(t *testing.T) {
	r := New(43)
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(2, 1.5); v < 2 {
			t.Fatalf("Pareto(2,1.5) = %v < xm", v)
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(47)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal <= 0: %v", v)
		}
	}
}

func TestUniformRange(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := New(seed)
		v := r.Uniform(-3, 8)
		return v >= -3 && v < 8
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64NotAllZero(t *testing.T) {
	// Property: any seed yields a non-degenerate stream.
	if err := quick.Check(func(seed uint64) bool {
		r := New(seed)
		var or uint64
		for i := 0; i < 16; i++ {
			or |= r.Uint64()
		}
		return or != 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}
