package experiments

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/failures"
	"repro/internal/snr"
	"repro/internal/wan"
)

// ThroughputPolicy is one row of the throughput-gain simulation.
type ThroughputPolicy struct {
	Policy wan.Policy
	// MeanSatisfied is the average demand-satisfaction fraction.
	MeanSatisfied float64
	// TotalShippedGbps sums TE throughput over rounds.
	TotalShippedGbps float64
	// MeanCapacityGbps is the average available IP capacity.
	MeanCapacityGbps float64
	// Changes counts capacity changes; DisruptedGbpsSec is the
	// estimated reconfiguration hit; DarkLinkRounds sums dark links.
	Changes          int
	DisruptedGbpsSec float64
	DarkLinkRounds   int
}

// ThroughputGainsResult is the §1 headline simulation: "simulate the
// throughput gains from deploying our approach".
type ThroughputGainsResult struct {
	Topology string
	Rounds   int
	Policies []ThroughputPolicy
	// GainOverStatic is dynamic shipped / static-100 shipped.
	GainOverStatic float64
}

// ThroughputGains runs static-100G, static-max, and dynamic operation
// against identical SNR evolution and oversubscribed gravity traffic.
// The backbone is Abilene at two wavelengths per fiber, the topology
// the figure notes were calibrated on. The figure is exactly the run
// `rwc-wansim -seed Seed^0x514 -rounds SimRounds -policy all` makes,
// which records its metrics, trace and flight log; rwc-wansim runs the
// same simulation on any backbone, up to paper-scale continental ones.
func ThroughputGains(o Options) (*ThroughputGainsResult, error) {
	sim, err := wan.NewSimulation(wan.SimConfig{
		Net:            wan.Abilene(2),
		Rounds:         o.SimRounds,
		Seed:           o.Seed ^ 0x514,
		DemandFraction: 1.2,
		DemandSigma:    0.1,
		Workers:        o.Workers,
	})
	if err != nil {
		return nil, err
	}
	res := &ThroughputGainsResult{Topology: "Abilene (11 nodes, 14 fibers, 2 wavelengths)", Rounds: o.SimRounds}
	policies := []wan.Policy{wan.PolicyStatic100, wan.PolicyStaticMax, wan.PolicyDynamic}
	runs, err := sim.RunPolicies(policies)
	if err != nil {
		return nil, err
	}
	var static100 float64
	for i, p := range policies {
		r := runs[i]
		row := ThroughputPolicy{
			Policy:           p,
			MeanSatisfied:    r.MeanSatisfied(),
			TotalShippedGbps: r.TotalShipped(),
			Changes:          r.TotalChanges(),
		}
		var capSum float64
		for _, m := range r.Rounds {
			capSum += m.CapacityGbps
			row.DisruptedGbpsSec += m.DisruptedGbpsSec
			row.DarkLinkRounds += m.LinksDark
		}
		row.MeanCapacityGbps = capSum / float64(len(r.Rounds))
		res.Policies = append(res.Policies, row)
		if p == wan.PolicyStatic100 {
			static100 = row.TotalShippedGbps
		}
		if p == wan.PolicyDynamic && static100 > 0 {
			res.GainOverStatic = row.TotalShippedGbps / static100
		}
	}
	return res, nil
}

// Table renders the throughput simulation.
func (r *ThroughputGainsResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Throughput simulation: %s, %d rounds, 1.2x oversubscribed", r.Topology, r.Rounds),
		Columns: []string{"policy", "mean satisfied", "total shipped Gbps", "mean capacity Gbps", "changes", "disrupted Gbps·s", "dark link-rounds"},
	}
	for _, p := range r.Policies {
		t.Rows = append(t.Rows, []string{
			p.Policy.String(), pct(p.MeanSatisfied), f(p.TotalShippedGbps),
			f(p.MeanCapacityGbps), fmt.Sprintf("%d", p.Changes),
			f(p.DisruptedGbpsSec), fmt.Sprintf("%d", p.DarkLinkRounds),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("dynamic ships %.2fx the traffic of static-100G (paper: 75-100%% per-link capacity gain)", r.GainOverStatic),
		"static-max harvests capacity but leaves links dark when SNR dips; dynamic flaps down instead")
	return t
}

// AvailabilityResult quantifies §2.2: failures that dynamic capacity
// would turn into 50 Gbps flaps.
type AvailabilityResult struct {
	// Failures is the number of failure events at the 100G threshold.
	Failures int
	// Avoidable is how many kept SNR ≥ 3 dB (runnable at 50 Gbps).
	Avoidable int
	// AvoidableFrac is the headline ≈25%.
	AvoidableFrac float64
	// MeanAvailabilityStatic/Flap compare per-link availability under
	// the binary rule vs the flap-to-50G rule.
	MeanAvailabilityStatic float64
	MeanAvailabilityFlap   float64
	// DowntimeAvoidedHours is the fleet-wide downtime converted into
	// degraded-but-up time.
	DowntimeAvoidedHours float64
}

// AvailabilityGains streams the fleet and compares the binary up/down
// rule against flap-to-50 Gbps.
func AvailabilityGains(o Options) (*AvailabilityResult, error) {
	ladder := o.Dataset.Ladder
	th100, err := ladder.ThresholdFor(100)
	if err != nil {
		return nil, err
	}
	th50, err := ladder.ThresholdFor(50)
	if err != nil {
		return nil, err
	}
	res := &AvailabilityResult{}
	links := 0
	var availStatic, availFlap float64
	err = dataset.Stream(o.datasetConfig(), func(s *snr.Series) error {
		links++
		spans := failures.Detect(s.Samples, th100)
		for _, sp := range spans {
			res.Failures++
			if sp.AvoidableAt(th50) {
				res.Avoidable++
				res.DowntimeAvoidedHours += sp.Hours()
			}
		}
		availStatic += failures.Availability(s.Samples, th100)
		availFlap += failures.Availability(s.Samples, th50)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if res.Failures > 0 {
		res.AvoidableFrac = float64(res.Avoidable) / float64(res.Failures)
	}
	if links > 0 {
		res.MeanAvailabilityStatic = availStatic / float64(links)
		res.MeanAvailabilityFlap = availFlap / float64(links)
	}
	return res, nil
}

// Table renders the availability analysis.
func (r *AvailabilityResult) Table() *Table {
	t := &Table{
		Title:   "Availability: link failures replaced by capacity flaps (§2.2)",
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"failure events at 100G threshold", fmt.Sprintf("%d", r.Failures)},
			{"avoidable at 50 Gbps (SNR >= 3 dB)", fmt.Sprintf("%d (%s)", r.Avoidable, pct(r.AvoidableFrac))},
			{"mean link availability, binary rule", fmt.Sprintf("%.5f", r.MeanAvailabilityStatic)},
			{"mean link availability, flap rule", fmt.Sprintf("%.5f", r.MeanAvailabilityFlap)},
			{"downtime converted to degraded uptime", fmt.Sprintf("%.0f h", r.DowntimeAvoidedHours)},
		},
	}
	t.Notes = append(t.Notes, "paper: 25% of failures could have been avoided by driving links at 50 Gbps")
	return t
}
