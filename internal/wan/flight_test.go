package wan

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// runRecorded runs one policy with a fresh Obs bundle and flight
// recorder, returning results, observability, and the decoded log.
// mutate (optional) edits the pre-generated simulation — fault
// injection via OverrideSNR — before the run.
func runRecorded(t *testing.T, cfg SimConfig, policy Policy, mutate func(*Simulation)) (*Result, *obs.Obs, *flight.Log) {
	t.Helper()
	o := obs.New("wan-test")
	rec := flight.New(flight.Options{})
	cfg.Obs = o
	cfg.Flight = rec
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(sim)
	}
	res, err := sim.Run(policy)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteLog(&buf, flight.Meta{Tool: "wan-flight-test", Seed: int64(cfg.Seed)}, o); err != nil {
		t.Fatal(err)
	}
	log, err := flight.ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return res, o, log
}

func TestFlightRecordingKeepsArtifactsByteIdentical(t *testing.T) {
	cfg := testSimConfig(t)
	_, plain := runObserved(t, cfg)
	_, recorded, _ := runRecorded(t, cfg, PolicyDynamic, nil)

	if !bytes.Equal(metricsBytes(t, plain), metricsBytes(t, recorded)) {
		t.Fatal("flight recording changed the Prometheus exposition")
	}
	if !bytes.Equal(traceBytes(t, plain), traceBytes(t, recorded)) {
		t.Fatal("flight recording changed the trace")
	}
	if !bytes.Equal(manifestBytes(t, plain), manifestBytes(t, recorded)) {
		t.Fatal("flight recording changed the manifest")
	}
}

func TestFlightFramesMirrorRoundMetrics(t *testing.T) {
	cfg := testSimConfig(t)
	res, _, log := runRecorded(t, cfg, PolicyDynamic, nil)

	if len(log.Frames) != cfg.Rounds {
		t.Fatalf("%d frames for %d rounds", len(log.Frames), cfg.Rounds)
	}
	if err := log.VerifyHashes(); err != nil {
		t.Fatal(err)
	}
	nLinks := cfg.Net.G.NumEdges()
	for i, fr := range log.Frames {
		m := res.Rounds[i]
		if fr.Round != m.Round || fr.Policy != "dynamic" {
			t.Fatalf("frame %d is (%s, round %d)", i, fr.Policy, fr.Round)
		}
		if fr.OfferedGbps != m.OfferedGbps || fr.ShippedGbps != m.ShippedGbps ||
			fr.CapacityGbps != m.CapacityGbps || fr.Changes != m.Changes {
			t.Fatalf("frame %d aggregates %+v disagree with round metrics %+v", i, fr, m)
		}
		if len(fr.Links) != nLinks {
			t.Fatalf("frame %d has %d link records, want %d", i, len(fr.Links), nLinks)
		}
		// Per-link capacities must sum to the round aggregate, and flows
		// must stay within capacity.
		var capSum float64
		dark := 0
		for _, lr := range fr.Links {
			capSum += lr.CapacityGbps
			if lr.CapacityGbps == 0 {
				dark++
			}
			if lr.FlowGbps > lr.CapacityGbps+1e-6 {
				t.Fatalf("frame %d link %d flow %v exceeds capacity %v", i, lr.LinkIndex, lr.FlowGbps, lr.CapacityGbps)
			}
			if lr.Fake && lr.FakeCapGbps <= 0 {
				t.Fatalf("frame %d link %d fake edge with no headroom", i, lr.LinkIndex)
			}
		}
		if capSum != m.CapacityGbps {
			t.Fatalf("frame %d per-link capacity sums to %v, round total %v", i, capSum, m.CapacityGbps)
		}
		if dark != m.LinksDark {
			t.Fatalf("frame %d has %d zero-capacity links, round reported %d dark", i, dark, m.LinksDark)
		}
	}
}

// TestFlightExplainMatchesTraceOrders is the acceptance check: for a
// seeded upgrade the `explain` chain must agree with the wan.order
// events the controller actually logged.
func TestFlightExplainMatchesTraceOrders(t *testing.T) {
	cfg := testSimConfig(t)
	_, o, log := runRecorded(t, cfg, PolicyDynamic, nil)

	// Index upgrade orders by (fiber, round) from the trace.
	upgrades := map[[2]int]bool{}
	for _, ev := range o.Trace.Events() {
		if ev.Name != "wan.order" {
			continue
		}
		var round, fiber = -1, -1
		var cause string
		for _, a := range ev.Attrs {
			switch a.Key {
			case "round":
				round = a.Value.(int)
			case "fiber":
				fiber = a.Value.(int)
			case "cause":
				cause = a.Value.(string)
			}
		}
		if cause == "upgrade" {
			upgrades[[2]int{fiber, round}] = true
		}
	}
	if len(upgrades) == 0 {
		t.Fatal("seeded run produced no upgrade orders")
	}

	links := log.Runs[0].Links
	verified := 0
	for _, fr := range log.Frames {
		for _, lr := range fr.Links {
			if lr.Verdict != flight.VerdictUpgrade {
				continue
			}
			link := links[lr.LinkIndex]
			if !upgrades[[2]int{link.Fiber, fr.Round}] {
				t.Fatalf("frame round %d marks %s upgraded but the trace has no upgrade order for fiber %d",
					fr.Round, link.Name, link.Fiber)
			}
			e, err := log.Explain("", "dynamic", fr.Round, link.Name)
			if err != nil {
				t.Fatal(err)
			}
			out := e.Format()
			for _, want := range []string{"verdict upgrade", "fake edge", "solver selection"} {
				if !bytes.Contains([]byte(out), []byte(want)) {
					t.Fatalf("explain for seeded upgrade missing %q:\n%s", want, out)
				}
			}
			if !e.Rec.Fake || e.Rec.FakeFlowGbps <= 0 {
				t.Fatalf("upgraded link %s round %d has no selected fake edge: %+v", link.Name, fr.Round, e.Rec)
			}
			verified++
		}
	}
	if verified == 0 {
		t.Fatal("no upgrade verdicts recorded despite upgrade orders in the trace")
	}
}

// TestFlightSingleRoundRun pins Rounds=1 behavior: a single-round run
// must emit its per-round series and exactly one frame per policy (the
// round loop has no off-by-one that would skip the only round).
func TestFlightSingleRoundRun(t *testing.T) {
	cfg := testSimConfig(t)
	cfg.Rounds = 1
	res, o, log := runRecorded(t, cfg, PolicyDynamic, nil)

	if len(res.Rounds) != 1 || res.Rounds[0].Round != 0 {
		t.Fatalf("single-round run produced rounds %+v", res.Rounds)
	}
	pl := obs.L("policy", "dynamic")
	if got := o.Counter("wan_rounds_total", "", pl).Value(); got != 1 {
		t.Fatalf("wan_rounds_total = %v after a 1-round run", got)
	}
	if o.Gauge("wan_shipped_gbps", "", pl).Value() != res.Rounds[0].ShippedGbps {
		t.Fatal("single-round run did not record its per-round gauges")
	}
	if len(log.Frames) != 1 || log.Frames[0].Round != 0 {
		t.Fatalf("single-round run recorded %d frames", len(log.Frames))
	}
	if len(log.Frames[0].Links) != cfg.Net.G.NumEdges() {
		t.Fatalf("single-round frame has %d links", len(log.Frames[0].Links))
	}
	// The recorder's labeled series cover the single round too.
	var buf bytes.Buffer
	if err := log.Trailer.Series.Restore().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("wan_link_snr_db{")) {
		t.Fatalf("single-round run emitted no labeled link series:\n%s", buf.String())
	}
}

func TestFlightBisectNamesInjectedOverride(t *testing.T) {
	cfg := testSimConfig(t)
	_, _, base := runRecorded(t, cfg, PolicyDynamic, nil)

	const fiber, wavelength, round = 0, 0, 5
	_, _, dipped := runRecorded(t, cfg, PolicyDynamic, func(s *Simulation) {
		if err := s.OverrideSNR(fiber, wavelength, round, -5); err != nil {
			t.Fatal(err)
		}
	})

	d := flight.Bisect(base, dipped)
	if !d.Found || d.Structural != "" {
		t.Fatalf("bisect missed the injected override: %+v", d)
	}
	if d.Round != round {
		t.Fatalf("bisect names round %d, override was round %d", d.Round, round)
	}
	// The diverging link must ride the overridden fiber, and since the
	// SNR sample is the first causal field, that is what must differ.
	var wantLinks []string
	for _, l := range base.Runs[0].Links {
		if l.Fiber == fiber {
			wantLinks = append(wantLinks, l.Name)
		}
	}
	found := false
	for _, n := range wantLinks {
		if n == d.Link {
			found = true
		}
	}
	if !found {
		t.Fatalf("bisect names link %q, want one of %v (fiber %d)", d.Link, wantLinks, fiber)
	}
	if d.Field != "snr_db" {
		t.Fatalf("bisect names field %q, want snr_db", d.Field)
	}
}

// TestFlightLogWorkerParity: RunPolicies fans policies out over
// workers; the flight log must be byte-identical for every worker
// count because WriteLog orders frames canonically, not by arrival.
func TestFlightLogWorkerParity(t *testing.T) {
	policies := []Policy{PolicyStatic100, PolicyStaticMax, PolicyDynamic}
	logBytes := func(workers int) []byte {
		cfg := testSimConfig(t)
		cfg.Workers = workers
		cfg.Obs = obs.New("wan-flight-test")
		cfg.Flight = flight.New(flight.Options{})
		sim, err := NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunPolicies(policies); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cfg.Flight.WriteLog(&buf, flight.Meta{Tool: "wan-flight-test", Seed: int64(cfg.Seed)}, cfg.Obs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial, fanned := logBytes(1), logBytes(4)
	if !bytes.Equal(serial, fanned) {
		t.Fatal("flight log bytes depend on the worker count")
	}
	log, err := flight.ReadLog(bytes.NewReader(serial))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testSimConfig(t)
	if want := len(policies) * cfg.Rounds; len(log.Frames) != want {
		t.Fatalf("%d frames, want %d", len(log.Frames), want)
	}
}
