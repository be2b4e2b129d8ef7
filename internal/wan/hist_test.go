package wan

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/obs/flight"
	"repro/internal/obs/hist"
	"repro/internal/obs/serve"
)

// histSimConfig is testSimConfig with a history store attached to the
// registry, returning both.
func histSimConfig(t *testing.T, workers int) (SimConfig, *hist.Store) {
	t.Helper()
	cfg := testSimConfig(t)
	cfg.Workers = workers
	o := obs.New("wan-test")
	cfg.Obs = o
	st := hist.New(hist.Options{Tool: "wan-test", Seed: cfg.Seed})
	o.Metrics.SetHistory(st.Root().Bind(o.Clock))
	return cfg, st
}

// TestHistoryByteIdenticalAcrossWorkers is the tentpole determinism
// acceptance: a multi-policy run archives byte-identical history for
// any worker count (each policy child records into its own shard; the
// canonical merge erases the fan-out topology).
func TestHistoryByteIdenticalAcrossWorkers(t *testing.T) {
	archive := func(workers int) []byte {
		cfg, st := histSimConfig(t, workers)
		sim, err := NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunPolicies([]Policy{PolicyStatic100, PolicyStaticMax, PolicyDynamic}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := st.Archive().WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	w1, w4 := archive(1), archive(4)
	if !bytes.Equal(w1, w4) {
		a, _ := hist.ReadArchive(bytes.NewReader(w1))
		b, _ := hist.ReadArchive(bytes.NewReader(w4))
		t.Fatalf("history archive differs between workers 1 and 4:\n%v", hist.Diff(a, b))
	}
}

// TestHistoryOnDoesNotPerturbArtifacts: attaching a history sink must
// leave the metrics, trace and manifest artifacts byte-identical to a
// plain run — capture is a pure tap on the registry write path.
func TestHistoryOnDoesNotPerturbArtifacts(t *testing.T) {
	artifacts := func(withHist bool) ([]byte, []byte, []byte) {
		cfg := testSimConfig(t)
		o := obs.New("wan-test")
		cfg.Obs = o
		if withHist {
			st := hist.New(hist.Options{Tool: "wan-test", Seed: cfg.Seed})
			o.Metrics.SetHistory(st.Root().Bind(o.Clock))
		}
		sim, err := NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunPolicies([]Policy{PolicyStatic100, PolicyStaticMax, PolicyDynamic}); err != nil {
			t.Fatal(err)
		}
		return metricsBytes(t, o), traceBytes(t, o), manifestBytes(t, o)
	}
	plainM, plainT, plainMan := artifacts(false)
	histM, histT, histMan := artifacts(true)
	if !bytes.Equal(plainM, histM) {
		t.Fatal("metrics artifact differs when history is enabled")
	}
	if !bytes.Equal(plainT, histT) {
		t.Fatal("trace artifact differs when history is enabled")
	}
	if !bytes.Equal(plainMan, histMan) {
		t.Fatal("manifest artifact differs when history is enabled")
	}
}

// TestCapacityBelowSLOAcceptance is the §2.3 end-to-end scenario: a
// seeded sustained SNR dip is visible in the history store (the same
// store /queryz serves), and the capacity_below_slo burn-rate rule
// fires one round after onset and resolves when the short window
// drains — all at deterministic simulation times.
func TestCapacityBelowSLOAcceptance(t *testing.T) {
	cfg, st := histSimConfig(t, 0)
	cfg.Alerts = alert.DefaultSLORules()
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Calm 18 dB everywhere, then sink one wavelength below the 10 dB
	// SLO floor for two consecutive rounds — a sustained §2.3 dip, not
	// a one-round transient.
	const dipStart = 8 // rounds 8 and 9 of 12, t = 48h and 54h
	for f := 0; f < cfg.Net.NumFibers; f++ {
		for w := 0; w < cfg.Net.Wavelengths; w++ {
			for r := 0; r < cfg.Rounds; r++ {
				if err := sim.OverrideSNR(f, w, r, 18); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for r := dipStart; r < dipStart+2; r++ {
		if err := sim.OverrideSNR(1, 0, r, 7); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := sim.Run(PolicyDynamic); err != nil {
		t.Fatal(err)
	}

	// The dip is queryable from the store (the /queryz backend): both
	// bad rounds, at their exact sim times.
	res, err := st.Query(hist.Query{
		Selector: `wan_snr_min_db{policy="dynamic"}`,
		FromNs:   (time.Duration(dipStart) * cfg.RoundInterval).Nanoseconds(),
		ToNs:     (time.Duration(dipStart+1) * cfg.RoundInterval).Nanoseconds(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Samples) != 2 {
		t.Fatalf("dip query = %+v, want 2 samples", res)
	}
	for i, s := range res[0].Samples {
		want := time.Duration(dipStart+i) * cfg.RoundInterval
		if s.T != want || s.V != 7 {
			t.Fatalf("dip sample %d = %+v, want t=%v v=7", i, s, want)
		}
	}

	// Burn-rate timing: at onset (48h) the long 48h window holds one
	// bad round of eight (burn 1.25 < 2 — no page); one round later
	// (54h) both windows burn ≥ 2× budget and the alert fires; by 66h
	// the short window has drained and it resolves.
	o := cfg.Obs
	var fires, resolves []obs.Event
	for _, ev := range o.Trace.Events() {
		switch ev.Name {
		case "alert.fire":
			fires = append(fires, ev)
		case "alert.resolve":
			resolves = append(resolves, ev)
		}
	}
	if len(fires) != 1 || len(resolves) != 1 {
		t.Fatalf("got %d fires + %d resolves, want 1 + 1 (fires: %+v)", len(fires), len(resolves), fires)
	}
	attrs := map[string]any{}
	for _, a := range fires[0].Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["rule"] != "capacity_below_slo" {
		t.Fatalf("fired rule %v, want capacity_below_slo", attrs["rule"])
	}
	if want := time.Duration(dipStart+1) * cfg.RoundInterval; fires[0].T != want {
		t.Fatalf("alert.fire stamped %v, want %v (one round after onset)", fires[0].T, want)
	}
	if want := time.Duration(dipStart+3) * cfg.RoundInterval; resolves[0].T != want {
		t.Fatalf("alert.resolve stamped %v, want %v (short window drained)", resolves[0].T, want)
	}
}

// TestSLORulesQuietOnHealthyRun guards the SLO calibration: the
// default seeded run never dips below the 10 dB floor, so appending
// the SLO rules to a healthy run must not fire anything (which is also
// what keeps -hist-out artifact-identical under -alerts).
func TestSLORulesQuietOnHealthyRun(t *testing.T) {
	cfg, _ := histSimConfig(t, 0)
	cfg.Alerts = append(alert.DefaultWANRules(), alert.DefaultSLORules()...)
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunPolicies([]Policy{PolicyStatic100, PolicyStaticMax, PolicyDynamic}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range cfg.Obs.Trace.Events() {
		if ev.Name != "alert.fire" {
			continue
		}
		for _, a := range ev.Attrs {
			if a.Key == "rule" && a.Value == "capacity_below_slo" {
				t.Fatalf("capacity_below_slo fired on a healthy run: %+v", ev)
			}
		}
	}
}

// TestReplayHistMatchesLiveRun is the flight ⊇ history regression at
// the simulation level: rebuilding history from a real run's flight
// log reproduces the live run's recorder-owned series byte-for-byte.
func TestReplayHistMatchesLiveRun(t *testing.T) {
	cfg, st := histSimConfig(t, 0)
	rec := flight.New(flight.Options{})
	rec.SetHistory(st.Root().NewChild(), cfg.RoundInterval)
	cfg.Flight = rec
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunPolicies([]Policy{PolicyStatic100, PolicyStaticMax, PolicyDynamic}); err != nil {
		t.Fatal(err)
	}

	var logBuf bytes.Buffer
	meta := flight.Meta{Tool: "wan-test", Seed: int64(cfg.Seed), Interval: cfg.RoundInterval}
	if err := rec.WriteLog(&logBuf, meta, cfg.Obs); err != nil {
		t.Fatal(err)
	}
	l, err := flight.ReadLog(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// The live store holds registry series too; the flight log carries
	// only the recorder-owned per-link series, so compare that subset.
	recorderOwned := func(s hist.Series) bool {
		return s.Name == "wan_link_snr_db" || s.Name == "wan_link_capacity_gbps"
	}
	live := st.Archive().Filter(recorderOwned)
	rebuilt := l.History(0).Archive()
	if len(live.Series) == 0 {
		t.Fatal("live run recorded no per-link history series")
	}
	var a, b bytes.Buffer
	if err := live.WriteBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("rebuilt history diverges from live run:\n%v", hist.Diff(live, rebuilt))
	}
}

// TestServeQueryzOverRealRun closes the loop with the HTTP layer: the
// store a real simulation populated answers /queryz with the same
// values the registry recorded.
func TestServeQueryzOverRealRun(t *testing.T) {
	cfg, st := histSimConfig(t, 0)
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(PolicyDynamic); err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Options{Obs: cfg.Obs, Tool: "wan-test", Seed: cfg.Seed, Hist: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/queryz?" + url.Values{
		"q":  {`wan_rounds_total{policy="dynamic"}`},
		"op": {"last"},
	}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/queryz = %d", resp.StatusCode)
	}
	var out struct {
		Results []hist.Result `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || len(out.Results[0].Samples) != 1 {
		t.Fatalf("rounds query = %+v", out.Results)
	}
	if got := out.Results[0].Samples[0].V; got != float64(cfg.Rounds) {
		t.Fatalf("wan_rounds_total last = %v, want %d", got, cfg.Rounds)
	}
}
