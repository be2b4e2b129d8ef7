// Package qot estimates the quality of transmission — the SNR a
// coherent receiver sees — from a link's physical build: fiber length,
// span layout, amplifier noise, launch power, and a lumped nonlinear
// penalty. It is the GN-model-lite justification for the SNR baselines
// the synthetic fleet draws: long-haul links earn lower SNR (fewer
// upgradable rungs), short metro hops earn more — the physical reason
// the paper's Figure 2b is a distribution rather than a constant.
//
// The model is the standard engineering OSNR budget:
//
//	OSNR_dB = 58 + P_launch − SpanLoss − NF − 10·log10(N_spans)
//	SNR_dB  = OSNR_dB − 10·log10(Rs / 12.5 GHz) − NLI − Margin
//
// (58 dBm is the −58 dBm ASE floor constant for 0.1 nm reference
// bandwidth; the 12.5 GHz term converts the 0.1 nm OSNR reference to
// the signal bandwidth.)
package qot

import (
	"fmt"
	"math"
)

// Params describes the optical line system.
type Params struct {
	// SpanKm is the amplifier spacing (default 80 km).
	SpanKm float64
	// AttenuationdBPerKm is the fiber loss (default 0.2 dB/km).
	AttenuationdBPerKm float64
	// LaunchPowerdBm is the per-channel launch power (default 0 dBm).
	LaunchPowerdBm float64
	// NoiseFiguredB is the EDFA noise figure (default 5 dB).
	NoiseFiguredB float64
	// NLIPenaltydB lumps the nonlinear interference at the chosen
	// launch power (default 2 dB).
	NLIPenaltydB float64
	// MargindB is the operator's engineering margin — aging,
	// connectors, repairs (default 2 dB).
	MargindB float64
	// SymbolRateGBd is the signal bandwidth for the OSNR→SNR
	// conversion (default 32 GBd).
	SymbolRateGBd float64
}

// Default returns parameters matching a 2017-era long-haul line system.
func Default() Params {
	return Params{
		SpanKm:             80,
		AttenuationdBPerKm: 0.2,
		LaunchPowerdBm:     0,
		NoiseFiguredB:      5,
		NLIPenaltydB:       2,
		MargindB:           2,
		SymbolRateGBd:      32,
	}
}

// Validate reports whether the parameters are physical.
func (p Params) Validate() error {
	switch {
	case p.SpanKm <= 0:
		return fmt.Errorf("qot: non-positive span length")
	case p.AttenuationdBPerKm <= 0:
		return fmt.Errorf("qot: non-positive attenuation")
	case p.NoiseFiguredB < 0:
		return fmt.Errorf("qot: negative noise figure")
	case p.NLIPenaltydB < 0 || p.MargindB < 0:
		return fmt.Errorf("qot: negative penalty or margin")
	case p.SymbolRateGBd <= 0:
		return fmt.Errorf("qot: non-positive symbol rate")
	}
	return nil
}

// aseFloor is the −58 dBm ASE constant for 0.1 nm at 1550 nm.
const aseFloor = 58.0

// refBandwidthGHz is the 0.1 nm OSNR reference bandwidth.
const refBandwidthGHz = 12.5

// Spans returns the number of amplified spans for a link length.
func (p Params) Spans(lengthKm float64) int {
	if lengthKm <= 0 {
		return 0
	}
	return int(math.Ceil(lengthKm / p.SpanKm))
}

// OSNRdB returns the 0.1 nm OSNR after the given length.
func (p Params) OSNRdB(lengthKm float64) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if lengthKm <= 0 {
		return 0, fmt.Errorf("qot: non-positive length %v km", lengthKm)
	}
	n := p.Spans(lengthKm)
	spanLoss := p.SpanKm * p.AttenuationdBPerKm
	return aseFloor + p.LaunchPowerdBm - spanLoss - p.NoiseFiguredB - 10*math.Log10(float64(n)), nil
}

// SNRdB returns the receiver SNR after the given length, including the
// bandwidth conversion, nonlinear penalty and margin.
func (p Params) SNRdB(lengthKm float64) (float64, error) {
	osnr, err := p.OSNRdB(lengthKm)
	if err != nil {
		return 0, err
	}
	conv := 10 * math.Log10(p.SymbolRateGBd/refBandwidthGHz)
	return osnr - conv - p.NLIPenaltydB - p.MargindB, nil
}
