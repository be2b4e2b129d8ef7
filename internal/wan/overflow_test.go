package wan

import (
	"math"
	"testing"
	"time"
)

// TestNewSimulationHugeHorizonRejected: a round count whose horizon
// overflows the int64 nanosecond clock must be rejected with a
// validation error, and the largest one that fits accepted by Validate.
// (Before the check, the product wrapped negative, snr.SamplesFor
// returned a tiny count, and every policy silently sampled a
// 4-element series for a multi-billion-hour horizon.)
func TestNewSimulationHugeHorizonRejected(t *testing.T) {
	maxRounds := int(math.MaxInt64 / RoundInterval)
	for _, rounds := range []int{maxRounds + 1, math.MaxInt64 / 2, math.MaxInt64} {
		cfg := testSimConfig(t)
		cfg.Rounds = rounds
		if _, err := NewSimulation(cfg); err == nil {
			t.Fatalf("%d rounds of %v accepted: the horizon overflows the clock", rounds, RoundInterval)
		}
	}
	cfg := testSimConfig(t)
	cfg.Rounds = maxRounds
	if err := cfg.Validate(); err != nil {
		t.Fatalf("%d rounds, the most the clock holds, rejected: %v", maxRounds, err)
	}
}

// TestNewSimulationClockOverflowRejected: a sim-time offset whose
// rounds run the clock past its int64 end must be rejected. Checking
// the horizon alone let SimConfig{Rounds: 2, SimTimeOffset: MaxInt64 −
// 1h} through, and round 1 was stamped −2562042h47m16.85s in the trace,
// the history and the flight series.
func TestNewSimulationClockOverflowRejected(t *testing.T) {
	cfg := testSimConfig(t)
	cfg.Rounds = 2
	for _, offset := range []time.Duration{math.MaxInt64 - time.Hour, math.MaxInt64 - 2*RoundInterval + 1, math.MaxInt64} {
		cfg.SimTimeOffset = offset
		if _, err := NewSimulation(cfg); err == nil {
			t.Fatalf("sim time offset %v with %d rounds of %v accepted: the clock wraps", offset, cfg.Rounds, RoundInterval)
		}
	}
	// The clock may reach its end exactly: the next generation would
	// start there.
	cfg.SimTimeOffset = math.MaxInt64 - 2*RoundInterval
	if err := cfg.Validate(); err != nil {
		t.Fatalf("sim time offset %v with %d rounds rejected: %v", cfg.SimTimeOffset, cfg.Rounds, err)
	}
}
