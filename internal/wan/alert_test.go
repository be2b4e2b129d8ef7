package wan

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/alert"
)

// TestSNRDipScenarioFiresAlertOnce is the acceptance scenario for the
// live-ops alert plane: inject a ≥3 dB SNR dip into an otherwise calm
// network and prove the snr_dip rule fires exactly once, stamped with
// the dip round's simulation time.
func TestSNRDipScenarioFiresAlertOnce(t *testing.T) {
	cfg := testSimConfig(t)
	cfg.Alerts = alert.DefaultWANRules()
	o := obs.New()
	cfg.Obs = o
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Flatten the generated evolution to a calm 18 dB everywhere so the
	// injected dip is the only alertable signal, then sink one
	// wavelength to 14 dB (a 4 dB dip ≥ the 3 dB threshold) for one
	// round.
	const dipRound = 7
	for f := 0; f < cfg.Net.NumFibers; f++ {
		for w := 0; w < cfg.Net.Wavelengths; w++ {
			for r := 0; r < cfg.Rounds; r++ {
				if err := sim.OverrideSNR(f, w, r, 18); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := sim.OverrideSNR(2, 1, dipRound, 14); err != nil {
		t.Fatal(err)
	}

	if _, err := sim.Run(PolicyDynamic); err != nil {
		t.Fatal(err)
	}

	var fires, resolves []obs.Event
	for _, ev := range o.Trace.Events() {
		switch ev.Name {
		case "alert.fire":
			fires = append(fires, ev)
		case "alert.resolve":
			resolves = append(resolves, ev)
		}
	}
	if len(fires) != 1 {
		t.Fatalf("want exactly one alert.fire for the injected dip, got %d: %+v", len(fires), fires)
	}
	attrs := map[string]any{}
	for _, a := range fires[0].Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["rule"] != "snr_dip" {
		t.Fatalf("fired rule %v, want snr_dip", attrs["rule"])
	}
	if attrs["value"] != 4.0 {
		t.Fatalf("dip depth %v, want 4 dB", attrs["value"])
	}
	// Deterministic simulation-time stamp: dip round × round interval.
	if want := time.Duration(dipRound) * RoundInterval; fires[0].T != want {
		t.Fatalf("alert.fire stamped %v, want %v", fires[0].T, want)
	}
	// The dip lasts one round, so the alert resolves the next round.
	if len(resolves) != 1 {
		t.Fatalf("want one alert.resolve after recovery, got %d", len(resolves))
	}
	if want := time.Duration(dipRound+1) * RoundInterval; resolves[0].T != want {
		t.Fatalf("alert.resolve stamped %v, want %v", resolves[0].T, want)
	}

	// The registry counts the same transitions per rule.
	totals := o.Metrics.Totals()
	for _, name := range []string{`alerts_fired_total{rule="snr_dip"}`, `alerts_resolved_total{rule="snr_dip"}`} {
		if totals[name] != 1 {
			t.Fatalf("%s = %v, want 1", name, totals[name])
		}
	}
}

// TestAlertsAreByteDeterministicAcrossWorkers proves alerting composes
// with the fan-out layer: a multi-policy run with alert rules produces
// byte-identical traces (including alert events) for any worker count.
func TestAlertsAreByteDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []byte {
		cfg := testSimConfig(t)
		cfg.Alerts = alert.DefaultWANRules()
		cfg.Workers = workers
		o := obs.New()
		cfg.Obs = o
		sim, err := NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunPolicies([]Policy{PolicyStatic100, PolicyStaticMax, PolicyDynamic}); err != nil {
			t.Fatal(err)
		}
		return traceBytes(t, o)
	}
	if !bytes.Equal(run(1), run(4)) {
		t.Fatal("worker count changed the trace (alert events included)")
	}
}
