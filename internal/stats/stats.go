// Package stats provides the statistical toolkit behind every figure in
// the reproduction: empirical CDFs, quantiles, histograms, summary
// statistics, and the 95% highest-density region (HDR) metric the paper
// uses to characterize SNR stability (Figure 2a).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by estimators that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Summary holds the usual scalar summaries of a sample.
type Summary struct {
	Mean   float64
	Std    float64 // population standard deviation
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. It returns ErrEmpty for an empty
// sample.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(len(xs)))
	s.Median = Quantile(xs, 0.5)
	return s, nil
}

// Quantile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between order statistics (type 7, the R/NumPy default).
// It copies and sorts internally; callers with pre-sorted data should
// use QuantileSorted. Quantile panics on an empty sample or p outside
// [0, 1]: both indicate a programming error in an experiment.
func Quantile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, p)
}

// QuantileSorted is Quantile for already-ascending data.
func QuantileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: quantile p=%v out of [0,1]", p))
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	h := p * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Range returns max(xs) - min(xs), the paper's "Range (max−min)" metric
// from Figure 2a.
func Range(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return hi - lo, nil
}

// HDR computes the highest-density region of a sample at the given mass
// (e.g. 0.95): the smallest interval [Lo, Hi] containing at least
// ceil(mass*N) of the samples. This is the paper's stability metric:
// "the smallest interval in which 95% or more of the SNR values are
// concentrated" (§2.1). For an empirical sample the minimizing interval
// always has order statistics as endpoints, so we slide a window of
// k = ceil(mass*N) points over the sorted sample and keep the narrowest.
type HDRInterval struct {
	Lo, Hi float64
}

// Width returns Hi - Lo.
func (h HDRInterval) Width() float64 { return h.Hi - h.Lo }

// HDR returns the highest-density region at the given mass in (0, 1].
func HDR(xs []float64, mass float64) (HDRInterval, error) {
	if len(xs) == 0 {
		return HDRInterval{}, ErrEmpty
	}
	if mass <= 0 || mass > 1 {
		return HDRInterval{}, fmt.Errorf("stats: HDR mass %v out of (0,1]", mass)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	k := int(math.Ceil(mass * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	best := HDRInterval{Lo: sorted[0], Hi: sorted[k-1]}
	for i := 1; i+k-1 < len(sorted); i++ {
		if w := sorted[i+k-1] - sorted[i]; w < best.Width() {
			best = HDRInterval{Lo: sorted[i], Hi: sorted[i+k-1]}
		}
	}
	return best, nil
}

// CDFPoint is one point of an empirical CDF: P(X <= X) = F.
type CDFPoint struct {
	X float64
	F float64
}

// CDF is an empirical cumulative distribution function over a sample.
// Points are ascending in X and F.
type CDF struct {
	Points []CDFPoint
}

// NewCDF builds the empirical CDF of xs. Duplicate values collapse into
// a single point carrying the cumulative mass. Returns ErrEmpty for an
// empty sample.
func NewCDF(xs []float64) (CDF, error) {
	if len(xs) == 0 {
		return CDF{}, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	pts := make([]CDFPoint, 0, len(sorted))
	for i := 0; i < len(sorted); i++ {
		// Collapse runs of equal values to the last index of the run.
		if i+1 < len(sorted) && sorted[i+1] == sorted[i] { //nolint:nofloateq // CDF mass collapses on bit-identical duplicates only
			continue
		}
		pts = append(pts, CDFPoint{X: sorted[i], F: float64(i+1) / n})
	}
	return CDF{Points: pts}, nil
}

// At returns F(x) = P(X <= x).
func (c CDF) At(x float64) float64 {
	// Binary search for the last point with X <= x.
	i := sort.Search(len(c.Points), func(i int) bool { return c.Points[i].X > x })
	if i == 0 {
		return 0
	}
	return c.Points[i-1].F
}

// DefaultTol is the default tolerance for approximate float
// comparison: loose enough to absorb accumulated rounding in flow
// arithmetic, tight enough to separate any two distinct modulation
// ladder denominations (which are ≥ 25 Gbps apart).
const DefaultTol = 1e-9

// ApproxEqual reports whether a and b are equal within relative
// tolerance rel, with an absolute floor of rel near zero. This is the
// comparison the nofloateq lint rule points at: SNR and capacity
// values accumulate rounding, so direct == on them silently asks for
// bit-identity. NaN compares unequal to everything, matching ==.
func ApproxEqual(a, b, rel float64) bool {
	if a == b { //nolint:nofloateq // fast path; also makes ±Inf == ±Inf hold
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		// Distinct infinities (or finite vs infinite) are never close:
		// without this, |a−b| ≤ rel·∞ would hold vacuously.
		return false
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale > 1 {
		return math.Abs(a-b) <= rel*scale
	}
	return math.Abs(a-b) <= rel
}

// ApproxInDelta reports whether a and b differ by at most delta — the
// absolute-tolerance companion to ApproxEqual, for quantities with a
// natural scale (e.g. capacities on a 25 Gbps-step ladder). NaN
// compares unequal to everything.
func ApproxInDelta(a, b, delta float64) bool {
	if a == b { //nolint:nofloateq // fast path; also makes ±Inf == ±Inf hold
		return true
	}
	return math.Abs(a-b) <= delta
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// FractionAtLeast returns the fraction of samples >= threshold.
func FractionAtLeast(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x >= threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// FractionBelow returns the fraction of samples < threshold.
func FractionBelow(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return 1 - FractionAtLeast(xs, threshold)
}
