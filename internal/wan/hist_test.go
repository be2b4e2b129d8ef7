package wan

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sort"
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
	o := obs.New()
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
// leave the metrics and trace artifacts byte-identical to a
// plain run — capture is a pure tap on the registry write path. The
// default rules run over a two-round dip below capacity_below_slo's
// floor, so the burn-rate rule fires in both runs or in neither.
func TestHistoryOnDoesNotPerturbArtifacts(t *testing.T) {
	artifacts := func(withHist bool) ([]byte, []byte) {
		cfg := testSimConfig(t)
		cfg.Alerts = alert.DefaultWANRules()
		o := obs.New()
		cfg.Obs = o
		if withHist {
			st := hist.New(hist.Options{Tool: "wan-test", Seed: cfg.Seed})
			o.Metrics.SetHistory(st.Root().Bind(o.Clock))
		}
		sim, err := NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r := 4; r < 6; r++ {
			if err := sim.OverrideSNR(1, 0, r, 7); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sim.RunPolicies([]Policy{PolicyStatic100, PolicyStaticMax, PolicyDynamic}); err != nil {
			t.Fatal(err)
		}
		return metricsBytes(t, o), traceBytes(t, o)
	}
	plainM, plainT := artifacts(false)
	histM, histT := artifacts(true)
	if !bytes.Contains(plainM, []byte(`alerts_fired_total{rule="capacity_below_slo"} 3`)) {
		t.Fatalf("capacity_below_slo did not fire once per policy on the dip:\n%s", plainM)
	}
	if !bytes.Equal(plainM, histM) {
		t.Fatal("metrics artifact differs when history is enabled")
	}
	if !bytes.Equal(plainT, histT) {
		t.Fatal("trace artifact differs when history is enabled")
	}
}

// TestCapacityBelowSLOAcceptance is the §2.3 end-to-end scenario: a
// seeded sustained SNR dip is visible in the history store (the same
// store /queryz serves), and the capacity_below_slo burn-rate rule
// fires one round after onset and resolves when the short window
// drains — all at deterministic simulation times.
func TestCapacityBelowSLOAcceptance(t *testing.T) {
	cfg, st := histSimConfig(t, 0)
	cfg.Alerts = alert.DefaultWANRules()
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
		FromNs:   (time.Duration(dipStart) * RoundInterval).Nanoseconds(),
		ToNs:     (time.Duration(dipStart+1) * RoundInterval).Nanoseconds(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Samples) != 2 {
		t.Fatalf("dip query = %+v, want 2 samples", res)
	}
	for i, s := range res[0].Samples {
		want := time.Duration(dipStart+i) * RoundInterval
		if s.T != want || s.V != 7 {
			t.Fatalf("dip sample %d = %+v, want t=%v v=7", i, s, want)
		}
	}

	// Burn-rate timing: at onset (48h) the long 48h window holds one
	// bad round of eight (burn 1.25 < 2 — no page); one round later
	// (54h) both windows burn ≥ 2× budget and the alert fires; by 66h
	// the short window has drained and it resolves.
	// snr_dip fires on the same dip; only capacity_below_slo is timed here.
	o := cfg.Obs
	var fires, resolves []obs.Event
	for _, ev := range o.Trace.Events() {
		if !slices.Contains(ev.Attrs, obs.A("rule", "capacity_below_slo")) {
			continue
		}
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
	if want := time.Duration(dipStart+1) * RoundInterval; fires[0].T != want {
		t.Fatalf("alert.fire stamped %v, want %v (one round after onset)", fires[0].T, want)
	}
	if want := time.Duration(dipStart+3) * RoundInterval; resolves[0].T != want {
		t.Fatalf("alert.resolve stamped %v, want %v (short window drained)", resolves[0].T, want)
	}
}

// TestSLORulesQuietOnHealthyRun guards the SLO calibration: the
// default seeded run never dips below the 10 dB floor, so
// capacity_below_slo must not fire on a healthy run.
func TestSLORulesQuietOnHealthyRun(t *testing.T) {
	cfg, _ := histSimConfig(t, 0)
	cfg.Alerts = alert.DefaultWANRules()
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

// linkHistoryRef is the per-link history a flight log holds, built by
// hand from its sorted frames rather than through the store: one SNR
// and one capacity sample per admitted link of every frame, stamped at
// the run's origin + round × interval.
func linkHistoryRef(l *flight.Log) *hist.Archive {
	runs := make(map[string]flight.Run, len(l.Runs))
	for _, run := range l.Runs {
		runs[run.Name] = run
	}
	byKey := map[string]*hist.Series{}
	add := func(name string, labels []obs.Label, t time.Duration, v float64) {
		key := hist.Key(name, labels)
		s := byKey[key]
		if s == nil {
			s = &hist.Series{Name: name, Labels: labels, Type: "gauge"}
			byKey[key] = s
		}
		s.Total++
		s.Samples = append(s.Samples, obs.Sample{T: t, V: v})
	}
	for _, fr := range l.Frames {
		run := runs[fr.Run]
		t := run.Origin + time.Duration(fr.Round)*run.Interval
		for i, lr := range fr.Links[:run.Admitted] {
			labels := []obs.Label{obs.L("link", run.Links[i].Name), obs.L("policy", fr.Policy)}
			if fr.Run != "" {
				labels = append(labels, obs.L("run", fr.Run))
			}
			add("wan_link_snr_db", labels, t, lr.SNRdB)
			add("wan_link_capacity_gbps", labels, t, lr.CapacityGbps)
		}
	}
	keys := make([]string, 0, len(byKey))
	for key := range byKey {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	a := &hist.Archive{Meta: hist.Meta{Tool: l.Meta.Tool, Seed: l.Meta.Seed}}
	for _, key := range keys {
		a.Series = append(a.Series, *byKey[key])
	}
	return a
}

// TestReplayHistMatchesLiveRun: the history rebuilt from a real
// multi-policy run's flight log serializes to the per-link history
// built by hand from the same log's frames (linkHistoryRef).
func TestReplayHistMatchesLiveRun(t *testing.T) {
	cfg := testSimConfig(t)
	cfg.Obs = obs.New()
	rec := flight.New()
	cfg.Flight = rec
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunPolicies([]Policy{PolicyStatic100, PolicyStaticMax, PolicyDynamic}); err != nil {
		t.Fatal(err)
	}

	var logBuf bytes.Buffer
	meta := flight.Meta{Tool: "wan-test", Seed: cfg.Seed}
	if err := rec.WriteLog(&logBuf, meta, trailer(t, cfg.Obs)); err != nil {
		t.Fatal(err)
	}
	l, err := flight.ReadLog(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	want := linkHistoryRef(l)
	rebuilt := l.History().Archive()
	if len(want.Series) == 0 {
		t.Fatal("run recorded no per-link frames")
	}
	var a, b bytes.Buffer
	if err := want.WriteBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("rebuilt history diverges from the run's frames:\n%v", hist.Diff(want, rebuilt))
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
	s, err := serve.New(serve.Options{Obs: cfg.Obs, Tool: "wan-test", Seed: cfg.Seed, Hist: st, Admit: func([]float64) serve.AdmitResponse { return serve.AdmitResponse{} }})
	if err != nil {
		t.Fatal(err)
	}
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
