// Package failures models WAN link failures the way the paper's
// measurement study does (§2.2): a link *fails* when its SNR drops
// below the threshold of its configured modulation, and every failure
// has a root cause drawn from the taxonomy the authors extracted from
// seven months of operator tickets.
//
// Two complementary views are provided:
//
//   - Detection: scanning an SNR time series for threshold crossings,
//     yielding failure spans with their lowest SNR — the basis of
//     Figures 3a, 3b and 4c and of the availability analysis.
//   - Tickets: a generative model of operator failure tickets with the
//     paper's root-cause mix — the basis of Figures 4a and 4b.
package failures

import (
	"fmt"
	"time"

	"repro/internal/snr"
)

// Cause is a failure root-cause category (§2.2).
type Cause int

const (
	// CauseMaintenance is an unplanned event during scheduled
	// maintenance, "mostly due to human errors" (the paper's "Human"
	// category).
	CauseMaintenance Cause = iota
	// CauseFiberCut is an accidental break of the fiber.
	CauseFiberCut
	// CauseHardware is a failure of optical hardware: amplifiers,
	// transponders, optical cross connects.
	CauseHardware
	// CauseUndocumented covers tickets where technicians did not log
	// the exact action taken (but which are known not to be fiber cuts).
	CauseUndocumented

	// NumCauses is the number of categories.
	NumCauses = 4
)

// String names the cause.
func (c Cause) String() string {
	switch c {
	case CauseMaintenance:
		return "maintenance"
	case CauseFiberCut:
		return "fiber-cut"
	case CauseHardware:
		return "hardware"
	case CauseUndocumented:
		return "undocumented"
	default:
		return fmt.Sprintf("Cause(%d)", int(c))
	}
}

// Causes lists all categories in canonical order.
func Causes() []Cause {
	return []Cause{CauseMaintenance, CauseFiberCut, CauseHardware, CauseUndocumented}
}

// Span is one failure event detected in an SNR trace: a maximal run of
// samples below the configured threshold.
type Span struct {
	// Start and End are inclusive/exclusive sample indices.
	Start, End int
	// LowestSNR is the minimum SNR observed during the failure — the
	// quantity Figure 4c distributes. A loss-of-light failure bottoms
	// out at snr.LossOfLightdB.
	LowestSNR float64
}

// Duration returns the span's wall-clock duration at the 15-minute
// telemetry cadence.
func (s Span) Duration() time.Duration {
	return time.Duration(s.End-s.Start) * snr.SampleInterval
}

// Hours returns the duration in hours.
func (s Span) Hours() float64 { return s.Duration().Hours() }

// Detect scans samples for maximal runs strictly below thresholddB and
// returns them in order. This is the binary up/down rule the paper
// says today's networks enforce: "a dip in the SNR below the threshold
// results in the link being declared down".
func Detect(samples []float64, thresholddB float64) []Span {
	var out []Span
	inFail := false
	var cur Span
	for i, v := range samples {
		if v < thresholddB {
			if !inFail {
				inFail = true
				cur = Span{Start: i, LowestSNR: v}
			} else if v < cur.LowestSNR {
				cur.LowestSNR = v
			}
			continue
		}
		if inFail {
			cur.End = i
			out = append(out, cur)
			inFail = false
		}
	}
	if inFail {
		cur.End = len(samples)
		out = append(out, cur)
	}
	return out
}

// CountAtThreshold returns the number of failure events samples would
// experience if the link were configured at a modulation requiring
// thresholddB — the counterfactual of Figure 3a.
func CountAtThreshold(samples []float64, thresholddB float64) int {
	return len(Detect(samples, thresholddB))
}

// Availability returns the fraction of time the link is up at the
// given threshold, in [0, 1].
func Availability(samples []float64, thresholddB float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	down := 0
	for _, s := range Detect(samples, thresholddB) {
		down += s.End - s.Start
	}
	return 1 - float64(down)/float64(len(samples))
}

// AvoidableAt reports whether a failure span could have been survived
// by dropping the link to a lower-capacity modulation with threshold
// fallbackdB instead of declaring it down: true when the signal never
// fell below the fallback threshold. The paper's headline: 25% of
// failures keep SNR ≥ 3 dB, enough for 50 Gbps (§2.2).
func (s Span) AvoidableAt(fallbackdB float64) bool {
	return s.LowestSNR >= fallbackdB
}
