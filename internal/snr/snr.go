// Package snr models the signal-to-noise ratio of optical wavelengths
// over time. It is the synthetic stand-in for the paper's proprietary
// telemetry: 15-minute SNR samples for every wavelength ("IP link") of a
// large optical backbone over 2.5 years (§2.1).
//
// The generative model is calibrated so the paper's published aggregate
// statistics emerge from the process (see internal/dataset):
//
//   - each wavelength has a stable baseline SNR with small AR(1) jitter
//     and a slow seasonal drift, so its 95% highest-density region is
//     narrow (83% of links < 2 dB in the paper);
//   - rare impairment events ("dips") — maintenance accidents, amplifier
//     or transponder failures, fiber cuts — depress the SNR sharply for
//     hours, producing the wide max−min ranges (average ≈ 12 dB) and the
//     link failures of §2.2. A fraction of dips are complete
//     loss-of-light (fiber cut-like), flooring the SNR;
//   - wavelengths riding the same fiber share fiber-level events, which
//     is why Figure 1's forty series dip together.
//
// Generate and GenerateFiber build every sample of a horizon.
// SampleFiber builds only every stride-th sample: a 6 h TE round reads
// the first of the 24 samples its interval holds, so the WAN simulator
// asks for those alone. It steps the AR(1) jitter a whole stride at a
// time by its exact k-step law, one normal per kept sample, so the kept
// samples equal the full series' in law, not bit for bit. The seasonal
// term and the fiber-level draws are the full series' exactly; the
// wavelength-local dips, drawn after the jitter, are equal in law.
package snr

import (
	"fmt"
	"math"
	"time"

	"repro/internal/rng"
)

// SampleInterval is the telemetry cadence used throughout the paper.
const SampleInterval = 15 * time.Minute

// LossOfLightdB is the floor value recorded when the receiver loses the
// signal entirely. SNR is undefined without light; operators' telemetry
// reports a floor value, and the paper's Figure 4c shows failure-event
// SNRs extending down to 0 dB.
const LossOfLightdB = 0.0

// DipKind distinguishes partial impairments from complete loss of light.
type DipKind int

const (
	// DipPartial lowers the SNR by a finite depth (amplifier failures,
	// maintenance accidents, connector degradation).
	DipPartial DipKind = iota
	// DipLossOfLight floors the SNR (fiber cuts, laser shutdowns).
	DipLossOfLight
)

// String names the dip kind.
func (k DipKind) String() string {
	switch k {
	case DipPartial:
		return "partial"
	case DipLossOfLight:
		return "loss-of-light"
	default:
		return fmt.Sprintf("DipKind(%d)", int(k))
	}
}

// Dip is one impairment event within a series.
type Dip struct {
	Kind DipKind
	// Start and End are inclusive/exclusive sample indices.
	Start, End int
	// DepthdB is how far a partial dip depresses the SNR below the
	// baseline. Unused for loss-of-light.
	DepthdB float64
	// FiberLevel marks events shared by all wavelengths on the fiber.
	FiberLevel bool
}

// Series is the SNR time series of one wavelength.
type Series struct {
	// Samples holds SNR in dB at SampleInterval cadence, floored at
	// LossOfLightdB.
	Samples []float64
	// Dips lists the impairment events embedded in Samples, ascending
	// by Start and non-overlapping.
	Dips []Dip
	// BaselinedB is the long-run mean the series jitters around.
	BaselinedB float64
}

// Params configures the generative model for one wavelength.
type Params struct {
	// BaselinedB is the wavelength's long-run mean SNR.
	BaselinedB float64
	// JitterStd is the stationary standard deviation of the AR(1)
	// jitter around the baseline (dB).
	JitterStd float64
	// JitterPhi is the AR(1) coefficient in [0, 1); higher = smoother.
	JitterPhi float64
	// SeasonalAmpdB is the amplitude of a slow annual sinusoidal drift.
	SeasonalAmpdB float64
	// DipsPerYear is the Poisson rate of wavelength-local impairment
	// events.
	DipsPerYear float64
	// DipDepthMu, DipDepthSigma parameterize the log-normal depth (dB)
	// of partial dips.
	DipDepthMu, DipDepthSigma float64
	// DipDurationMuHours, DipDurationSigma parameterize the log-normal
	// dip duration. The paper observes failures lasting several hours
	// (Figure 3b).
	DipDurationMuHours, DipDurationSigma float64
	// LossOfLightProb is the probability that a dip is a complete
	// loss-of-light event rather than a partial impairment.
	LossOfLightProb float64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.JitterStd < 0:
		return fmt.Errorf("snr: negative JitterStd %v", p.JitterStd)
	case p.JitterPhi < 0 || p.JitterPhi >= 1:
		return fmt.Errorf("snr: JitterPhi %v outside [0,1)", p.JitterPhi)
	case p.DipsPerYear < 0:
		return fmt.Errorf("snr: negative DipsPerYear %v", p.DipsPerYear)
	case p.LossOfLightProb < 0 || p.LossOfLightProb > 1:
		return fmt.Errorf("snr: LossOfLightProb %v outside [0,1]", p.LossOfLightProb)
	case p.DipDurationSigma < 0 || p.DipDepthSigma < 0:
		return fmt.Errorf("snr: negative sigma")
	}
	return nil
}

// samplesPerYear at the 15-minute cadence.
const samplesPerYear = 365 * 24 * 4

// SamplesFor returns the number of samples covering d.
func SamplesFor(d time.Duration) int {
	return int(d / SampleInterval)
}

// Generate produces a Series of n samples using r as the randomness
// source. extraDips are events injected from outside (fiber-level
// events shared across wavelengths); they are merged with the
// wavelength-local dips drawn from the Params.
func Generate(p Params, n int, r *rng.Source, extraDips []Dip) (*Series, error) {
	return generate(p, n, 1, r, extraDips)
}

// generate is Generate's body: Samples[k] holds sample k·stride of the
// n-sample horizon (stride > 0), so stride 1 stores all n. The AR(1)
// jitter is advanced stride steps at a time by its exact k-step law,
// x ← φᵏ·x + JitterStd·√(1−φ²ᵏ)·z: one normal per kept sample, and the
// kept samples' joint law is the stride-1 series' subsampled. At stride
// 1 the step is the one-step recursion, so Generate's bytes are the
// sample-at-a-time chain's. The dips are drawn over the whole n-sample
// horizon whatever the stride, after the jitter.
func generate(p Params, n, stride int, r *rng.Source, extraDips []Dip) (*Series, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("snr: need n > 0 samples, got %d", n)
	}
	samples := make([]float64, ceilDiv(n, stride))

	// AR(1) jitter with stationary std JitterStd, started from the
	// stationary law. A stride-step innovation has std
	// JitterStd·√(1−φ²ᵏ); math.Pow(φ, 1) is φ exactly, so stride 1 keeps
	// JitterStd·√(1−φ²).
	phiK := math.Pow(p.JitterPhi, float64(stride))
	innovStd := p.JitterStd * math.Sqrt(1-phiK*phiK)
	jitter := p.JitterStd * r.NormFloat64()

	// Seasonal phase differs per wavelength.
	phase := r.Uniform(0, 2*math.Pi)

	// Position k holds sample i = k·stride. Each kept sample makes one
	// draw after it is stored, the last one included: that keeps
	// stride 1 at its n draws, and the last jitter is never read, so
	// its step length (n−i, at most stride) does not matter.
	for k := range samples {
		i := k * stride
		seasonal := p.SeasonalAmpdB * math.Sin(2*math.Pi*float64(i)/samplesPerYear+phase)
		samples[k] = p.BaselinedB + seasonal + jitter
		jitter = phiK*jitter + innovStd*r.NormFloat64()
	}

	// Wavelength-local dips: Poisson count over the horizon, placed
	// uniformly.
	years := float64(n) / samplesPerYear
	local := r.Poisson(p.DipsPerYear * years)
	dips := append([]Dip(nil), extraDips...)
	for i := 0; i < local; i++ {
		durH := r.LogNormal(p.DipDurationMuHours, p.DipDurationSigma)
		durSamples := int(math.Max(1, math.Round(durH*4))) // 4 samples/hour
		start, end := placeDip(r.Intn(n), durSamples, n)
		d := Dip{Start: start, End: end}
		if r.Bernoulli(p.LossOfLightProb) {
			d.Kind = DipLossOfLight
		} else {
			d.Kind = DipPartial
			d.DepthdB = r.LogNormal(p.DipDepthMu, p.DipDepthSigma)
		}
		dips = append(dips, d)
	}

	s := &Series{Samples: samples, Dips: normalizeDips(dips, n), BaselinedB: p.BaselinedB}
	applyDips(s.Samples, stride, s.Dips)
	return s, nil
}

// ceilDiv is ⌈a/b⌉ for a >= 0 and b > 0, without overflow.
func ceilDiv(a, b int) int {
	return a/b + min(a%b, 1)
}

// placeDip fits a drawn dip of durSamples samples starting at start
// into the [0, n) horizon while preserving the drawn duration: a dip
// that would overrun the end is shifted left instead of truncated.
// Truncating biased the empirical dip-duration distribution short near
// the horizon end (skewing the Figure 3b failure durations); shifting
// keeps the log-normal duration law exact while changing same-seed
// output only for dips that would have crossed the final samples.
func placeDip(start, durSamples, n int) (s, e int) {
	if durSamples > n {
		durSamples = n
	}
	if start+durSamples > n {
		start = n - durSamples
	}
	return start, start + durSamples
}

// normalizeDips clips dips to [0, n), drops empty ones, sorts by start,
// and merges overlaps (the deeper impairment wins inside an overlap, so
// merging keeps both as separate entries only when disjoint; overlapping
// dips are coalesced into one with the worse kind/depth).
func normalizeDips(dips []Dip, n int) []Dip {
	out := make([]Dip, 0, len(dips))
	for _, d := range dips {
		if d.Start < 0 {
			d.Start = 0
		}
		if d.End > n {
			d.End = n
		}
		if d.End <= d.Start {
			continue
		}
		out = append(out, d)
	}
	// Insertion sort by Start (dip counts are small).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Start < out[j-1].Start; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	merged := out[:0]
	for _, d := range out {
		if len(merged) == 0 || d.Start >= merged[len(merged)-1].End {
			merged = append(merged, d)
			continue
		}
		last := &merged[len(merged)-1]
		if d.End > last.End {
			last.End = d.End
		}
		if d.Kind == DipLossOfLight {
			last.Kind = DipLossOfLight
			last.DepthdB = 0
		} else if last.Kind == DipPartial && d.DepthdB > last.DepthdB {
			last.DepthdB = d.DepthdB
		}
		last.FiberLevel = last.FiberLevel || d.FiberLevel
	}
	return merged
}

// applyDips depresses the samples covered by each dip. samples[k] is
// sample k·stride of the horizon, so a dip [Start, End) covers the
// positions ⌈Start/stride⌉ up to ⌈End/stride⌉.
func applyDips(samples []float64, stride int, dips []Dip) {
	for _, d := range dips {
		lo, hi := ceilDiv(d.Start, stride), ceilDiv(d.End, stride)
		for k := lo; k < hi; k++ {
			switch d.Kind {
			case DipLossOfLight:
				samples[k] = LossOfLightdB
			case DipPartial:
				if v := samples[k] - d.DepthdB; v > LossOfLightdB {
					samples[k] = v
				} else {
					samples[k] = LossOfLightdB
				}
			}
		}
	}
	// Floor everything: jitter alone cannot push below loss of light.
	for k, v := range samples {
		if v < LossOfLightdB {
			samples[k] = LossOfLightdB
		}
	}
}
