package snr

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// FiberParams configures the generation of all wavelengths riding one
// physical fiber. The paper's Figure 1 plots forty wavelengths of one
// cable: they share fiber-level impairments (a cut or an amplifier
// failure hits every wavelength) while keeping per-wavelength baselines
// spread by a few dB (channel position in the band changes amplifier
// gain and accumulated noise).
type FiberParams struct {
	// Wavelengths is the number of optical channels on the fiber.
	// The paper's backbone carries 40 per fiber.
	Wavelengths int
	// BaselineMeandB and BaselineStddB define the fiber-quality prior
	// from which each wavelength's baseline is drawn.
	BaselineMeandB, BaselineStddB float64
	// FiberDipsPerYear is the rate of fiber-level events shared by all
	// wavelengths.
	FiberDipsPerYear float64
	// FiberLossOfLightProb is the chance a fiber-level event is a cut
	// (complete loss of light on every wavelength).
	FiberLossOfLightProb float64
	// FiberDipDepthMu/Sigma and FiberDipDurationMuHours/Sigma shape the
	// log-normal depth and duration of fiber-level partial events.
	FiberDipDepthMu, FiberDipDepthSigma            float64
	FiberDipDurationMuHours, FiberDipDurationSigma float64
	// JitterLogSigma spreads the per-wavelength jitter: each
	// wavelength's JitterStd is the configured value times
	// exp(JitterLogSigma·N(0,1)). The paper's Figure 2a needs link
	// heterogeneity — 83% of links have a 95% HDR under 2 dB, the rest
	// are noisier.
	JitterLogSigma float64
	// Wavelength holds the per-wavelength local process parameters;
	// BaselinedB inside it is ignored (drawn from the fiber prior).
	Wavelength Params
}

// Validate reports whether the parameters are usable.
func (fp FiberParams) Validate() error {
	switch {
	case fp.Wavelengths <= 0:
		return fmt.Errorf("snr: fiber needs >= 1 wavelength, got %d", fp.Wavelengths)
	case fp.BaselineStddB < 0:
		return fmt.Errorf("snr: negative BaselineStddB")
	case fp.FiberDipsPerYear < 0:
		return fmt.Errorf("snr: negative FiberDipsPerYear")
	case fp.FiberLossOfLightProb < 0 || fp.FiberLossOfLightProb > 1:
		return fmt.Errorf("snr: FiberLossOfLightProb outside [0,1]")
	case fp.JitterLogSigma < 0:
		return fmt.Errorf("snr: negative JitterLogSigma")
	}
	return fp.Wavelength.Validate()
}

// DefaultFiberParams returns the calibrated configuration used by the
// dataset generator. The values are chosen so that the fleet-level
// statistics match the paper's published aggregates; see
// internal/dataset for the calibration tests.
func DefaultFiberParams() FiberParams {
	return FiberParams{
		Wavelengths:    40,
		BaselineMeandB: 15.45,
		BaselineStddB:  1.7,
		JitterLogSigma: 0.55,
		// Roughly one fiber-level event every ~10 months.
		FiberDipsPerYear:     1.2,
		FiberLossOfLightProb: 0.14,
		FiberDipDepthMu:      math.Log(6), // median 6 dB drop
		FiberDipDepthSigma:   0.8,
		// Median ≈ 4.5 h, heavy tail to ~20 h (Figure 3b).
		FiberDipDurationMuHours: math.Log(4.5),
		FiberDipDurationSigma:   0.75,
		Wavelength: Params{
			JitterStd:          0.28,
			JitterPhi:          0.97,
			SeasonalAmpdB:      0.25,
			DipsPerYear:        1.1,
			DipDepthMu:         math.Log(5),
			DipDepthSigma:      0.9,
			DipDurationMuHours: math.Log(4),
			DipDurationSigma:   0.8,
			LossOfLightProb:    0.17,
		},
	}
}

// Fiber holds the generated series of every wavelength on one fiber.
type Fiber struct {
	// Series has one entry per wavelength.
	Series []*Series
	// FiberDips are the shared events injected into every wavelength.
	FiberDips []Dip
}

// GenerateFiber produces n samples for every wavelength of a fiber.
// Fiber-level events are drawn once and injected into every wavelength,
// producing the correlated dips visible in Figure 1.
func GenerateFiber(fp FiberParams, n int, r *rng.Source) (*Fiber, error) {
	return generateFiber(fp, n, 1, r)
}

// SampleFiber returns, for every wavelength of the fiber GenerateFiber
// would draw from (fp, n, r), every stride-th sample: row w holds
// ⌈n/stride⌉ samples, and row w, entry k is equal in law to
// GenerateFiber(fp, n, r).Series[w].Samples[k·stride], jointly over
// every wavelength and k, and r is left where GenerateFiber leaves it.
// The AR(1) jitter takes one normal per kept sample instead of one per
// sample (see generate), so a caller that reads one sample of each TE
// round (stride 24) draws one normal a round. What r itself draws (the
// fiber-level dips, each wavelength's baseline, jitter spread and split)
// and each wavelength's first two draws (the starting jitter and the
// seasonal phase) are GenerateFiber's; the later jitter and the
// wavelength-local dips, drawn after it, are equal in law only. At
// stride 1 the rows are GenerateFiber's samples bit for bit.
func SampleFiber(fp FiberParams, n, stride int, r *rng.Source) ([][]float64, error) {
	if stride <= 0 {
		return nil, fmt.Errorf("snr: need stride > 0, got %d", stride)
	}
	f, err := generateFiber(fp, n, stride, r)
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, len(f.Series))
	for w, s := range f.Series {
		rows[w] = s.Samples
	}
	return rows, nil
}

// generateFiber is the body of GenerateFiber and SampleFiber: each
// wavelength's Series holds every stride-th sample (see generate).
func generateFiber(fp FiberParams, n, stride int, r *rng.Source) (*Fiber, error) {
	if err := fp.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("snr: need n > 0 samples, got %d", n)
	}

	years := float64(n) / samplesPerYear
	nEvents := r.Poisson(fp.FiberDipsPerYear * years)
	shared := make([]Dip, 0, nEvents)
	for i := 0; i < nEvents; i++ {
		durH := r.LogNormal(fp.FiberDipDurationMuHours, fp.FiberDipDurationSigma)
		durSamples := int(math.Max(1, math.Round(durH*4)))
		start, end := placeDip(r.Intn(n), durSamples, n)
		d := Dip{Start: start, End: end, FiberLevel: true}
		if r.Bernoulli(fp.FiberLossOfLightProb) {
			d.Kind = DipLossOfLight
		} else {
			d.Kind = DipPartial
			d.DepthdB = r.LogNormal(fp.FiberDipDepthMu, fp.FiberDipDepthSigma)
		}
		shared = append(shared, d)
	}

	f := &Fiber{FiberDips: shared, Series: make([]*Series, fp.Wavelengths)}
	for w := 0; w < fp.Wavelengths; w++ {
		p := fp.Wavelength
		p.BaselinedB = fp.BaselineMeandB + fp.BaselineStddB*r.NormFloat64()
		if fp.JitterLogSigma > 0 {
			p.JitterStd *= math.Exp(fp.JitterLogSigma * r.NormFloat64())
		}
		// Partial fiber events hit each wavelength with slightly
		// different severity; perturb depth per wavelength.
		wshared := make([]Dip, len(shared))
		for i, d := range shared {
			if d.Kind == DipPartial {
				d.DepthdB *= r.Uniform(0.8, 1.2)
			}
			wshared[i] = d
		}
		s, err := generate(p, n, stride, r.Split(), wshared)
		if err != nil {
			return nil, err
		}
		f.Series[w] = s
	}
	return f, nil
}
