package modulation

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/rng"
)

// Symbol is one received constellation point (in-phase I, quadrature Q).
type Symbol struct {
	I, Q float64
}

// Constellation is the ideal symbol alphabet of a modulation format,
// normalized to unit average power.
type Constellation struct {
	Points []Symbol
}

// IdealConstellation returns the unit-average-power constellation of a
// (non-hybrid) format. Hybrid formats return an error: the testbed
// figure (Fig 5) only shows the three pure formats.
func IdealConstellation(f Format) (Constellation, error) {
	var pts []complex128
	switch f {
	case FormatBPSK:
		pts = []complex128{1, -1}
	case FormatQPSK:
		for _, re := range []float64{-1, 1} {
			for _, im := range []float64{-1, 1} {
				pts = append(pts, complex(re, im))
			}
		}
	case Format8QAM:
		// Star 8QAM: inner QPSK ring plus outer ring rotated 45°,
		// the arrangement coherent transceivers use.
		r1, r2 := 1.0, 1.0+math.Sqrt(3)
		for k := 0; k < 4; k++ {
			theta := float64(k)*math.Pi/2 + math.Pi/4
			pts = append(pts, cmplx.Rect(r1, theta))
		}
		for k := 0; k < 4; k++ {
			theta := float64(k) * math.Pi / 2
			pts = append(pts, cmplx.Rect(r2, theta))
		}
	case Format16QAM:
		for _, re := range []float64{-3, -1, 1, 3} {
			for _, im := range []float64{-3, -1, 1, 3} {
				pts = append(pts, complex(re, im))
			}
		}
	default:
		return Constellation{}, fmt.Errorf("modulation: no ideal constellation for %v", f)
	}
	// Normalize to unit average power.
	var p float64
	for _, c := range pts {
		p += real(c)*real(c) + imag(c)*imag(c)
	}
	scale := math.Sqrt(float64(len(pts)) / p)
	out := make([]Symbol, len(pts))
	for i, c := range pts {
		out[i] = Symbol{I: real(c) * scale, Q: imag(c) * scale}
	}
	return Constellation{Points: out}, nil
}

// Received synthesizes n received symbols of the constellation through
// an AWGN channel at the given SNR (dB): each transmitted point is a
// uniformly chosen alphabet symbol plus complex Gaussian noise whose
// variance matches the SNR. This regenerates the scatter in Figure 5.
func (c Constellation) Received(r *rng.Source, n int, snrdB float64) []Symbol {
	if n <= 0 {
		return nil
	}
	// Unit signal power by construction; total noise power 1/SNR splits
	// evenly across the I and Q components.
	sigma := math.Sqrt(1 / SNRdBToLinear(snrdB) / 2)
	out := make([]Symbol, n)
	for i := range out {
		p := c.Points[r.Intn(len(c.Points))]
		out[i] = Symbol{
			I: p.I + sigma*r.NormFloat64(),
			Q: p.Q + sigma*r.NormFloat64(),
		}
	}
	return out
}

// EVM computes the root-mean-square error vector magnitude of received
// symbols against the constellation, as a fraction of RMS signal power.
// Each received symbol is matched to its nearest ideal point (blind
// decision-directed EVM, what a transceiver DSP reports).
func (c Constellation) EVM(received []Symbol) float64 {
	if len(received) == 0 {
		return 0
	}
	var errPow, sigPow float64
	for _, s := range received {
		p := c.Nearest(s)
		di, dq := s.I-p.I, s.Q-p.Q
		errPow += di*di + dq*dq
		sigPow += p.I*p.I + p.Q*p.Q
	}
	if sigPow == 0 {
		return 0
	}
	return math.Sqrt(errPow / sigPow)
}

// Nearest returns the ideal constellation point closest to s.
func (c Constellation) Nearest(s Symbol) Symbol {
	best := c.Points[0]
	bestD := math.Inf(1)
	for _, p := range c.Points {
		di, dq := s.I-p.I, s.Q-p.Q
		if d := di*di + dq*dq; d < bestD {
			bestD = d
			best = p
		}
	}
	return best
}

// EstimatedSNRdB inverts EVM back into an SNR estimate: for
// decision-directed EVM in AWGN, SNR ≈ 1/EVM².
func EstimatedSNRdB(evm float64) float64 {
	if evm <= 0 {
		return math.Inf(1)
	}
	return SNRLinearToDB(1 / (evm * evm))
}

// qFunc is the Gaussian tail probability Q(x) = P(N(0,1) > x).
func qFunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// TheoreticalSER returns the (approximate) symbol error rate of the
// format over AWGN at the given SNR (dB), using the standard union-bound
// style approximations for M-PSK/M-QAM. Hybrid formats average their
// constituents. Used by tests and by the BVT model to decide whether a
// mode is sustainable.
func TheoreticalSER(f Format, snrdB float64) float64 {
	snr := SNRdBToLinear(snrdB)
	switch f {
	case FormatBPSK:
		return qFunc(math.Sqrt(2 * snr))
	case FormatQPSK:
		p := qFunc(math.Sqrt(snr))
		return 2*p - p*p
	case Format8QAM:
		// Approximation for star-8QAM via nearest-neighbour distance.
		return 2 * qFunc(math.Sqrt(snr*0.6))
	case Format16QAM:
		p := 1.5 * qFunc(math.Sqrt(snr/5))
		ser := 1 - (1-p)*(1-p)
		if ser < 0 {
			ser = 0
		}
		return ser
	case FormatHybridQPSK8QAM:
		return 0.5 * (TheoreticalSER(FormatQPSK, snrdB) + TheoreticalSER(Format8QAM, snrdB))
	case FormatHybrid8QAM16QAM:
		return 0.5 * (TheoreticalSER(Format8QAM, snrdB) + TheoreticalSER(Format16QAM, snrdB))
	default:
		return 1
	}
}
