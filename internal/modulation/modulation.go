// Package modulation models the coherent-transceiver modulation ladder
// the paper's hardware exposes: the set of capacity denominations
// {50, 100, 125, 150, 175, 200 Gbps}, the minimum SNR required to run a
// wavelength at each denomination, and the digital modulation format
// behind each rate (Figure 5 shows QPSK at 100 Gbps, 8QAM at 150 Gbps
// and 16QAM at 200 Gbps on the paper's testbed).
//
// The paper publishes two threshold anchors — 6.5 dB for 100 Gbps and
// 3.0 dB for 50 Gbps (§2.1, §2.2) — and states the remaining thresholds
// are "specific to our hardware, fiber length, fiber type, and
// wavelength". We complete the ladder with an evenly spaced progression
// consistent with the ordering in Figure 1; see DESIGN.md for the
// substitution note and EXPERIMENTS.md for sensitivity analysis.
package modulation

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// Gbps is a link capacity in gigabits per second.
type Gbps float64

// Format identifies a digital modulation format.
type Format int

// Modulation formats used by the paper's bandwidth variable transceiver.
// The 125 and 175 Gbps rates use time-interleaved hybrid formats, as
// flex-rate coherent transceivers do. They are declared in order of
// bits per symbol (BPSK 1 … 16QAM 4; a hybrid averages its two).
const (
	FormatNone Format = iota
	FormatBPSK
	FormatQPSK
	FormatHybridQPSK8QAM
	Format8QAM
	FormatHybrid8QAM16QAM
	Format16QAM
)

// String returns the conventional name of the format.
func (f Format) String() string {
	switch f {
	case FormatNone:
		return "none"
	case FormatBPSK:
		return "BPSK"
	case FormatQPSK:
		return "QPSK"
	case FormatHybridQPSK8QAM:
		return "QPSK/8QAM hybrid"
	case Format8QAM:
		return "8QAM"
	case FormatHybrid8QAM16QAM:
		return "8QAM/16QAM hybrid"
	case Format16QAM:
		return "16QAM"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// Mode is one rung of the capacity ladder: a capacity, its modulation
// format, and the minimum SNR (dB) the wavelength must sustain.
type Mode struct {
	Capacity Gbps
	Format   Format
	// MinSNRdB is the threshold below which the link cannot run at
	// Capacity. The paper's "capacity threshold".
	MinSNRdB float64
}

// Ladder is an ascending (by capacity) set of modes. The paper's
// hardware offers 100..200 Gbps in 25 Gbps steps, plus the 50 Gbps
// fallback used in the availability analysis (§2.2).
type Ladder struct {
	modes []Mode
}

// Default returns the calibrated ladder used throughout the
// reproduction. Anchors 3.0 dB → 50 Gbps and 6.5 dB → 100 Gbps are from
// the paper; the 125–200 Gbps thresholds continue the progression.
func Default() *Ladder {
	l, err := NewLadder([]Mode{
		{Capacity: 50, Format: FormatBPSK, MinSNRdB: 3.0},
		{Capacity: 100, Format: FormatQPSK, MinSNRdB: 6.5},
		{Capacity: 125, Format: FormatHybridQPSK8QAM, MinSNRdB: 8.5},
		{Capacity: 150, Format: Format8QAM, MinSNRdB: 10.5},
		{Capacity: 175, Format: FormatHybrid8QAM16QAM, MinSNRdB: 13.0},
		{Capacity: 200, Format: Format16QAM, MinSNRdB: 15.5},
	})
	if err != nil {
		panic(err) // the default ladder is a compile-time constant in spirit
	}
	return l
}

// NewLadder validates and constructs a Ladder. Modes must have strictly
// increasing capacities and strictly increasing SNR thresholds: a higher
// rate always needs more SNR.
func NewLadder(modes []Mode) (*Ladder, error) {
	if len(modes) == 0 {
		return nil, fmt.Errorf("modulation: ladder needs at least one mode")
	}
	sorted := append([]Mode(nil), modes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Capacity < sorted[j].Capacity })
	for i := range sorted {
		if sorted[i].Capacity <= 0 {
			return nil, fmt.Errorf("modulation: non-positive capacity %v", sorted[i].Capacity)
		}
		if i > 0 {
			if stats.ApproxInDelta(float64(sorted[i].Capacity), float64(sorted[i-1].Capacity), stats.DefaultTol) {
				return nil, fmt.Errorf("modulation: duplicate capacity %v", sorted[i].Capacity)
			}
			if sorted[i].MinSNRdB <= sorted[i-1].MinSNRdB {
				return nil, fmt.Errorf("modulation: SNR threshold not increasing at %v Gbps", sorted[i].Capacity)
			}
		}
	}
	return &Ladder{modes: sorted}, nil
}

// Modes returns the modes in ascending capacity order. The slice is a
// copy; mutating it does not affect the ladder.
func (l *Ladder) Modes() []Mode {
	return append([]Mode(nil), l.modes...)
}

// Capacities returns just the capacities, ascending.
func (l *Ladder) Capacities() []Gbps {
	out := make([]Gbps, len(l.modes))
	for i, m := range l.modes {
		out[i] = m.Capacity
	}
	return out
}

// FeasibleCapacity returns the highest capacity whose threshold is at or
// below snrdB, and whether any rung is feasible at all. This implements
// the paper's "feasible capacity for each link based on the lower SNR
// limit of its highest density region" computation.
func (l *Ladder) FeasibleCapacity(snrdB float64) (Mode, bool) {
	var best Mode
	found := false
	for _, m := range l.modes {
		if snrdB >= m.MinSNRdB {
			best = m
			found = true
		} else {
			break
		}
	}
	return best, found
}

// ModeFor returns the mode with exactly the given capacity.
func (l *Ladder) ModeFor(c Gbps) (Mode, bool) {
	for _, m := range l.modes {
		if stats.ApproxInDelta(float64(m.Capacity), float64(c), stats.DefaultTol) {
			return m, true
		}
	}
	return Mode{}, false
}

// ThresholdFor returns the SNR threshold for the given capacity. It is
// an error to ask for a capacity outside the ladder.
func (l *Ladder) ThresholdFor(c Gbps) (float64, error) {
	m, ok := l.ModeFor(c)
	if !ok {
		return 0, fmt.Errorf("modulation: capacity %v Gbps not in ladder", c)
	}
	return m.MinSNRdB, nil
}

// Min returns the lowest-capacity mode.
func (l *Ladder) Min() Mode { return l.modes[0] }

// SNRdBToLinear converts a dB SNR to a linear power ratio.
func SNRdBToLinear(db float64) float64 { return math.Pow(10, db/10) }

// SNRLinearToDB converts a linear power ratio to dB.
func SNRLinearToDB(lin float64) float64 { return 10 * math.Log10(lin) }
