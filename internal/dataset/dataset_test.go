package dataset

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/modulation"
	"repro/internal/snr"
	"repro/internal/stats"
)

// tinyConfig keeps unit tests fast: 3 fibers × 4 wavelengths × 60 days.
func tinyConfig() Config {
	c := DefaultConfig()
	c.Fibers = 3
	c.Fiber.Wavelengths = 4
	c.Duration = 60 * 24 * time.Hour
	return c
}

func TestConfigValidate(t *testing.T) {
	good := tinyConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Fibers = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("0 fibers accepted")
	}
	bad = good
	bad.Duration = time.Minute
	if err := bad.Validate(); err == nil {
		t.Fatal("sub-interval duration accepted")
	}
	bad = good
	bad.Ladder = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("nil ladder accepted")
	}
}

func TestDefaultConfigScale(t *testing.T) {
	c := DefaultConfig()
	if c.Links() != 2000 {
		t.Fatalf("default fleet has %d links, want 2000 (paper: 'over 2000 links')", c.Links())
	}
	if c.Duration < 2*365*24*time.Hour {
		t.Fatalf("default horizon %v, want 2.5 years", c.Duration)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamVisitsEveryLink(t *testing.T) {
	cfg := tinyConfig()
	seen := map[string]bool{}
	n := snr.SamplesFor(cfg.Duration)
	err := Stream(cfg, func(meta LinkMeta, s *snr.Series) error {
		if seen[meta.Name] {
			t.Fatalf("duplicate link %s", meta.Name)
		}
		seen[meta.Name] = true
		if len(s.Samples) != n {
			t.Fatalf("link %s has %d samples, want %d", meta.Name, len(s.Samples), n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != cfg.Links() {
		t.Fatalf("visited %d links, want %d", len(seen), cfg.Links())
	}
}

func TestStreamDeterministic(t *testing.T) {
	cfg := tinyConfig()
	first := map[string]float64{}
	if err := Stream(cfg, func(meta LinkMeta, s *snr.Series) error {
		first[meta.Name] = s.Samples[0] + s.Samples[len(s.Samples)-1]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := Stream(cfg, func(meta LinkMeta, s *snr.Series) error {
		if got := s.Samples[0] + s.Samples[len(s.Samples)-1]; got != first[meta.Name] {
			t.Fatalf("link %s not reproducible", meta.Name)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamAbortsOnError(t *testing.T) {
	cfg := tinyConfig()
	sentinel := errors.New("stop")
	count := 0
	err := Stream(cfg, func(meta LinkMeta, s *snr.Series) error {
		count++
		if count == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if count != 3 {
		t.Fatalf("visited %d links after abort", count)
	}
}

func TestGenerateFiberSeriesMatchesStream(t *testing.T) {
	cfg := tinyConfig()
	want := map[int][]float64{}
	if err := Stream(cfg, func(meta LinkMeta, s *snr.Series) error {
		if meta.Fiber == 1 {
			want[meta.Wavelength] = append([]float64(nil), s.Samples[:10]...)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	fiber, err := GenerateFiberSeries(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for w, s := range fiber.Series {
		for i, v := range want[w] {
			if s.Samples[i] != v {
				t.Fatalf("fiber 1 wl %d sample %d: %v != %v", w, i, s.Samples[i], v)
			}
		}
	}
	if _, err := GenerateFiberSeries(cfg, 99); err == nil {
		t.Fatal("out-of-range fiber accepted")
	}
}

func TestAnalyzeProducesSaneStats(t *testing.T) {
	cfg := tinyConfig()
	err := Stream(cfg, func(meta LinkMeta, s *snr.Series) error {
		ls, err := Analyze(meta, s, cfg.Ladder)
		if err != nil {
			return err
		}
		if ls.RangedB < 0 {
			t.Fatalf("negative range for %s", meta.Name)
		}
		if ls.HDR.Width() < 0 || ls.HDR.Width() > ls.RangedB+1e-9 {
			t.Fatalf("HDR width %v vs range %v", ls.HDR.Width(), ls.RangedB)
		}
		if ls.FeasibleOk && ls.Feasible.MinSNRdB > ls.HDR.Lo {
			t.Fatalf("feasible mode above HDR lower bound")
		}
		// Failure counts are NOT monotone in capacity (chattering events
		// merge into one long outage at a higher threshold), but
		// downtime is.
		prevD := -1.0
		for _, m := range cfg.Ladder.Modes() {
			d := ls.DowntimeHours[m.Capacity]
			if d < prevD {
				t.Fatalf("downtime decreased at %v Gbps", m.Capacity)
			}
			prevD = d
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeFleetAggregates(t *testing.T) {
	cfg := tinyConfig()
	fs, err := AnalyzeFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Links) != cfg.Links() {
		t.Fatalf("aggregated %d links", len(fs.Links))
	}
	if len(fs.HDRWidths()) != cfg.Links() || len(fs.Ranges()) != cfg.Links() || len(fs.FeasibleCapacities()) != cfg.Links() {
		t.Fatal("extraction length mismatch")
	}
	// Gain must equal the sum over links of feasible-100 (when above).
	var want float64
	for _, c := range fs.FeasibleCapacities() {
		if c > float64(DeployedCapacity) {
			want += c - float64(DeployedCapacity)
		}
	}
	if fs.CapacityGainGbps != want {
		t.Fatalf("gain %v != recomputed %v", fs.CapacityGainGbps, want)
	}
	// Every failure's lowest SNR is below the 100G threshold.
	for _, v := range fs.FailureLowestSNR {
		if v >= 6.5 {
			t.Fatalf("failure lowest SNR %v above threshold", v)
		}
	}
	// One synthetic ticket per failure, with consistent causes: a
	// fiber-cut classification requires loss of light.
	if len(fs.FailureTickets) != len(fs.FailureLowestSNR) {
		t.Fatalf("%d tickets for %d failures", len(fs.FailureTickets), len(fs.FailureLowestSNR))
	}
	for i, tk := range fs.FailureTickets {
		if tk.Cause == failures.CauseFiberCut && fs.FailureLowestSNR[i] > 0 {
			t.Fatalf("failure %d classified as fiber cut with light present (%v dB)",
				i, fs.FailureLowestSNR[i])
		}
		if tk.Duration <= 0 {
			t.Fatalf("ticket %d has non-positive duration", i)
		}
	}
}

// TestCalibration verifies that the paper's published aggregate
// statistics emerge from the generative model at a moderate scale
// (10 fibers × 40 wavelengths × 1 year). Tolerances are wide enough to
// absorb horizon effects but tight enough to catch calibration drift.
func TestCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration needs a ~year-scale fleet")
	}
	cfg := DefaultConfig()
	cfg.Fibers = 10
	cfg.Duration = 365 * 24 * time.Hour
	fs, err := AnalyzeFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Figure 2a: "HDR is less than 2 dB for 83% of them".
	hdrUnder2 := stats.FractionBelow(fs.HDRWidths(), 2)
	if hdrUnder2 < 0.75 || hdrUnder2 > 0.93 {
		t.Errorf("HDR<2dB fraction = %v, want ≈ 0.83", hdrUnder2)
	}

	// Figure 2a: wide ranges, "the average ... nearly 12 dB".
	meanRange := stats.Mean(fs.Ranges())
	if meanRange < 9 || meanRange > 16 {
		t.Errorf("mean range = %v dB, want ≈ 12", meanRange)
	}

	// Figure 2b: "the feasible capacity of 80% of our links is
	// 175 Gbps or higher".
	at175 := stats.FractionAtLeast(fs.FeasibleCapacities(), 175)
	if at175 < 0.72 || at175 > 0.92 {
		t.Errorf("feasible>=175 fraction = %v, want ≈ 0.80", at175)
	}

	// "a potential increase of 145 Tbps" over 2000 links → per-link
	// mean gain ≈ 72.5 Gbps.
	meanGain := fs.CapacityGainGbps / float64(len(fs.Links))
	if meanGain < 55 || meanGain > 95 {
		t.Errorf("mean per-link gain = %v Gbps, want ≈ 72", meanGain)
	}

	// Figure 4c: "the lowest SNR in failure events is above 3.0 dB,
	// nearly 25% of the time".
	if len(fs.FailureLowestSNR) < 50 {
		t.Fatalf("only %d failures in a year-long 400-link fleet", len(fs.FailureLowestSNR))
	}
	above3 := stats.FractionAtLeast(fs.FailureLowestSNR, 3)
	if above3 < 0.15 || above3 > 0.38 {
		t.Errorf("failures with lowest SNR >= 3 dB = %v, want ≈ 0.25", above3)
	}

	// §2.1: failures at 100 Gbps are rare (links are stable) — order
	// of a few per link-year.
	var totalFailures int
	for _, l := range fs.Links {
		totalFailures += l.FailureCount[modulation.Gbps(100)]
	}
	perLinkYear := float64(totalFailures) / float64(len(fs.Links))
	if perLinkYear < 0.2 || perLinkYear > 6 {
		t.Errorf("failures per link-year at 100G = %v, want a few", perLinkYear)
	}
}

func BenchmarkAnalyzeLinkYear(b *testing.B) {
	cfg := tinyConfig()
	cfg.Duration = 365 * 24 * time.Hour
	var series *snr.Series
	var meta LinkMeta
	if err := Stream(Config{
		Fibers: 1, Duration: cfg.Duration, Seed: 1,
		Fiber:  func() snr.FiberParams { f := cfg.Fiber; f.Wavelengths = 1; return f }(),
		Ladder: cfg.Ladder,
	}, func(m LinkMeta, s *snr.Series) error {
		meta = m
		series = &snr.Series{Samples: append([]float64(nil), s.Samples...), BaselinedB: s.BaselinedB}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(meta, series, cfg.Ladder); err != nil {
			b.Fatal(err)
		}
	}
}

// TestConfigValidateLinkCountOverflow: Fibers × Wavelengths beyond
// int range must be rejected up front — a wrapped Links() count used
// to surface later as a negative loop bound or a silent empty stream.
func TestConfigValidateLinkCountOverflow(t *testing.T) {
	bad := tinyConfig()
	bad.Fibers = math.MaxInt / 2
	bad.Fiber.Wavelengths = 4
	if err := bad.Validate(); err == nil {
		t.Fatal("overflowing fibers x wavelengths accepted")
	}
	// The exact boundary still validates: MaxInt/w fibers at w
	// wavelengths is the largest representable link count.
	edge := tinyConfig()
	edge.Fiber.Wavelengths = 8
	edge.Fibers = math.MaxInt / 8
	if err := edge.Validate(); err != nil {
		t.Fatalf("boundary link count rejected: %v", err)
	}
	if edge.Links() < 0 {
		t.Fatalf("boundary Links() wrapped: %d", edge.Links())
	}
}
