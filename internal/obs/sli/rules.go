package sli

import (
	"time"

	"repro/internal/obs/alert"
)

// DefaultServiceRules is the daemon's service-health rule set,
// reusing internal/obs/alert's multi-window burn-rate machinery over
// the SLI layer's uptime clock (Layer.Tick evaluates them at the
// injected uptime, sampling each latest-latency gauge once per tick, so
// the windows are real wall windows without the rules ever reading a
// clock):
//
//   - round_latency_slo: a simulation round should complete well
//     inside its tick budget. A sample is bad when the most recent
//     round at a tick took ≥ 5 s of wall time; the rule fires when
//     both the 30 s and 2 m windows burn more than 2× the 10% error
//     budget. One slow round (GC pause, cold cache) burns only the
//     short window — no page; a sustained regression burns both within
//     one window of onset.
//   - scrape_latency_slo: /metrics must stay cheap under client load.
//     A sample is bad when the most recent scrape at a tick took
//     ≥ 0.5 s; windows and budget mirror round_latency_slo.
//
// Thresholds are deliberately generous: CI's daemon smoke asserts
// these alerts stay quiet on a healthy run, so they must only fire on
// genuine service distress, not machine noise.
func DefaultServiceRules() []alert.Rule {
	return []alert.Rule{
		{
			Name:        "round_latency_slo",
			Metric:      MetricRoundLatencyLast,
			Source:      alert.SourceBurnRate,
			SLO:         5.0,
			SLOOp:       alert.OpAbove,
			ShortWindow: 30 * time.Second,
			LongWindow:  2 * time.Minute,
			Budget:      0.1,
			Op:          alert.OpAbove,
			Threshold:   2,
			Sustain:     1,
			Severity:    alert.SeverityCritical,
		},
		{
			Name:        "scrape_latency_slo",
			Metric:      MetricScrapeLatLast,
			Source:      alert.SourceBurnRate,
			SLO:         0.5,
			SLOOp:       alert.OpAbove,
			ShortWindow: 30 * time.Second,
			LongWindow:  2 * time.Minute,
			Budget:      0.1,
			Op:          alert.OpAbove,
			Threshold:   2,
			Sustain:     1,
			Severity:    alert.SeverityWarning,
		},
	}
}
