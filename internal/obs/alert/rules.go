package alert

import "time"

// DefaultWANRules is the built-in rule set for the WAN simulation,
// mapping the paper's operational signals to alert predicates:
//
//   - snr_dip: §2.3 observes that real fiber SNR dips 3+ dB below its
//     typical level during weather events, which is exactly when
//     dynamic capacity policies must step modulation down. The rule
//     watches the per-policy minimum-SNR gauge and fires whenever it
//     sits ≥ 3 dB below its running maximum.
//   - capacity_flap_rate: frequent capacity reconfiguration is the
//     operational cost of running links dynamically (§3 "capacity may
//     change too often"). The rule fires when more than a quarter of
//     links change capacity per round for two consecutive rounds — a
//     sustained churn signal, not a single reconvergence blip.
//   - te_solver_work_p99: the TE solver must keep up with the round
//     cadence. Wall latency is nondeterministic, so the simulation
//     records deterministic solver work units (augmenting-path count)
//     in the wan_te_solve_work histogram; the rule fires when the p99
//     exceeds a budget that, at measured per-unit cost, would blow the
//     round deadline.
//   - capacity_below_slo: recasts §2.3's dip observation as an
//     availability objective: minimum link SNR must stay above the
//     engineered baseline minus 3 dB (the depth at which modulation
//     steps down and capacity is lost), with a 10% error budget of
//     simulation rounds. The burn rate — the bad-round fraction over a
//     window divided by that budget — is taken over a short 12 h window
//     (2 rounds at the default 6 h cadence, fast detection) and a long
//     48 h window (8 rounds, confirmation), and the rule fires when
//     *both* exceed 2× budget: a single bad round burns the short
//     window but not the long one (no page), while a §2.3-length event
//     (hours of depressed SNR, i.e. 2+ consecutive bad rounds) burns
//     both within one round of onset and resolves as the short window
//     drains.
func DefaultWANRules() []Rule {
	return []Rule{
		{
			Name:      "snr_dip",
			Metric:    "wan_snr_min_db",
			Source:    SourceDipFromMax,
			Op:        OpAbove,
			Threshold: 3,
			Sustain:   1,
			Severity:  SeverityCritical,
			Help:      "Minimum link SNR is ≥3 dB below its running maximum (§2.3 weather-event dip); expect modulation step-down.",
		},
		{
			Name:      "capacity_flap_rate",
			Metric:    "wan_flap_rate",
			Source:    SourceValue,
			Op:        OpAbove,
			Threshold: 0.25,
			Sustain:   2,
			Severity:  SeverityWarning,
			Help:      "More than 25% of links changed capacity per round for 2+ consecutive rounds; sustained churn destabilizes TE.",
		},
		{
			Name:      "te_solver_work_p99",
			Metric:    "wan_te_solve_work",
			Source:    SourceHistP99,
			Op:        OpAbove,
			Threshold: 20000,
			Sustain:   1,
			Severity:  SeverityWarning,
			Help:      "p99 TE solver work units per solve exceed the round budget; solver may not keep up with the reconfiguration cadence.",
		},
		{
			Name:        "capacity_below_slo",
			Metric:      "wan_snr_min_db",
			Source:      SourceBurnRate,
			SLO:         10.0, // engineered floor: §2.3 baseline ≈15.45 dB − 3 dB dip, rounded below the ≈10.5 dB default-run noise floor
			SLOOp:       OpBelow,
			ShortWindow: 12 * time.Hour,
			LongWindow:  48 * time.Hour,
			Budget:      0.1,
			Op:          OpAbove,
			Threshold:   2,
			Sustain:     1,
			Severity:    SeverityCritical,
			Help:        "SNR-availability SLO burn: min link SNR spent too much of both the 12h and 48h windows below the modulation floor (§2.3 dip translated into an objective); capacity is being lost faster than the error budget allows.",
		},
	}
}
