package dataset

// Parity tests for the deterministic fan-out: fleet generation and
// analysis must produce identical output for every worker count.

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/snr"
)

// parityConfig is a small fleet that still spans several fibers per
// worker.
func parityConfig() Config {
	c := SmallConfig()
	c.Fibers = 6
	c.Fiber.Wavelengths = 4
	c.Duration = 30 * 24 * time.Hour
	return c
}

// streamDigest records the visit order and a content digest of every
// series Stream yields.
type streamDigest struct {
	Baseline float64
	Sum      float64
	First    float64
	Last     float64
	Dips     int
}

func digestStream(t *testing.T, cfg Config) []streamDigest {
	t.Helper()
	var out []streamDigest
	err := Stream(cfg, func(s *snr.Series) error {
		d := streamDigest{
			Baseline: s.BaselinedB,
			First:    s.Samples[0],
			Last:     s.Samples[len(s.Samples)-1],
			Dips:     len(s.Dips),
		}
		for _, v := range s.Samples {
			d.Sum += v
		}
		out = append(out, d)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStreamWorkersParity: identical series in identical order for
// every worker count.
func TestStreamWorkersParity(t *testing.T) {
	cfg := parityConfig()
	cfg.Workers = 1
	want := digestStream(t, cfg)
	if len(want) != cfg.Links() {
		t.Fatalf("visited %d links, want %d", len(want), cfg.Links())
	}
	for _, w := range []int{2, 4} {
		cfg.Workers = w
		if got := digestStream(t, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: stream output differs from workers=1", w)
		}
	}
}

// TestAnalyzeFleetWorkersParity: the full aggregate — including the
// ticket causes drawn from a shared rng during ordered consumption —
// is identical for every worker count.
func TestAnalyzeFleetWorkersParity(t *testing.T) {
	run := func(workers int) *FleetStats {
		cfg := parityConfig()
		// Stormier fleet: enough loss-of-light events that the ticket
		// stream (drawn from a shared rng at consume time) is non-empty.
		cfg.Fiber.Wavelength.DipsPerYear = 40
		cfg.Fiber.Wavelength.LossOfLightProb = 0.5
		cfg.Fiber.FiberDipsPerYear = 12
		cfg.Workers = workers
		fs, err := AnalyzeFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	want := run(1)
	if len(want.FailureTickets) == 0 {
		t.Fatal("parity fleet produced no tickets; the ticket-rng ordering is untested")
	}
	for _, w := range []int{2, 4} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: AnalyzeFleet differs from workers=1", w)
		}
	}
}
