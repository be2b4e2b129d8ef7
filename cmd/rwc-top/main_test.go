package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/hist"
	"repro/internal/obs/perf"
	"repro/internal/obs/serve"
)

// topServer builds an operations plane over a history store carrying a
// seeded SNR dip at rounds 4-5 of 8 and a firing alert series; with
// withPerf it also attaches a perf recorder with one timed phase and a
// work counter, so the PERF panel has something to render.
func topServer(t *testing.T, withHist, withPerf bool) *httptest.Server {
	t.Helper()
	o := obs.New()
	var st *hist.Store
	if withHist {
		st = hist.New(hist.Options{Tool: "top-test", Seed: 7})
		o.Metrics.SetHistory(st.Root().Bind(o.Clock))
	}
	g := o.Gauge("wan_snr_min_db", "min SNR", obs.L("policy", "run"))
	a := o.Gauge("alerts_active", "firing", obs.L("alert", "capacity_below_slo"))
	for r := 0; r < 8; r++ {
		o.SetSimTime(time.Duration(r) * 6 * time.Hour)
		v, firing := 15.0, 0.0
		if r == 4 || r == 5 {
			v = 11.0
		}
		if r >= 4 { // fired at the dip and not yet resolved
			firing = 1.0
		}
		g.Set(v)
		a.Set(firing)
	}
	var rec *perf.Recorder
	if withPerf {
		rec = perf.New("top-test")
		for i := 1; i <= 4; i++ {
			rec.Observe("wan.round/dynamic", time.Duration(i)*time.Millisecond)
		}
		o.Counter("rwc_work_dijkstra_pops_total", "pops", obs.L("policy", "dynamic")).Add(12345)
	}
	s, err := serve.New(serve.Options{Obs: o, Tool: "top-test", Seed: 7, Hist: st, Perf: rec, Admit: func([]float64) serve.AdmitResponse { return serve.AdmitResponse{} }})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func topConfig(ts *httptest.Server) config {
	return config{
		base:   ts.URL,
		window: 48 * time.Hour,
		series: []string{`wan_snr_min_db{policy="run"}`},
		width:  16,
	}
}

func TestRenderFrameShowsSeriesAndAlerts(t *testing.T) {
	ts := topServer(t, true, false)
	var out strings.Builder
	if err := renderFrame(&out, ts.Client(), topConfig(ts)); err != nil {
		t.Fatal(err)
	}
	frame := out.String()
	for _, want := range []string{
		"top-test seed=7",
		`wan_snr_min_db{policy="run"}`,
		"[11.000 … 15.000]",
		"ALERTS",
		`FIRING {alert="capacity_below_slo"}`,
	} {
		if !strings.Contains(frame, want) {
			t.Fatalf("frame missing %q:\n%s", want, frame)
		}
	}
	// The dip series last value is the round-7 recovery, not the dip.
	if !strings.Contains(frame, "15.000  ") {
		t.Fatalf("frame missing last value:\n%s", frame)
	}
	for _, r := range sparkRunes {
		if strings.ContainsRune(frame, r) {
			// Without a perf recorder the PERF panel degrades to a note.
			if !strings.Contains(frame, "perf capture disabled") {
				t.Fatalf("frame missing perf-disabled note:\n%s", frame)
			}
			return
		}
	}
	t.Fatalf("frame has no sparkline cells:\n%s", frame)
}

func TestRenderFramePerfPanel(t *testing.T) {
	ts := topServer(t, true, true)
	var out strings.Builder
	if err := renderFrame(&out, ts.Client(), topConfig(ts)); err != nil {
		t.Fatal(err)
	}
	frame := out.String()
	for _, want := range []string{
		"PERF",
		"wan.round/dynamic",
		"n=4",
		"[1ms … 4ms]",
		"rwc_work_dijkstra_pops_total",
		"12345",
	} {
		if !strings.Contains(frame, want) {
			t.Fatalf("frame missing %q:\n%s", want, frame)
		}
	}
	// The PERF latency line carries its own sparkline cells.
	perfSection := frame[strings.Index(frame, "PERF"):]
	for _, r := range sparkRunes {
		if strings.ContainsRune(perfSection, r) {
			return
		}
	}
	t.Fatalf("PERF panel has no sparkline cells:\n%s", frame)
}

// TestRenderPerfParentArtifact: a /perfz body in the shape written
// before the report dropped elapsed_ns, bucket_bounds_ns, buckets_ns
// and mem renders the PERF panel the parent build rendered from it
// (testdata/perf_panel_parent.txt).
func TestRenderPerfParentArtifact(t *testing.T) {
	body, err := os.ReadFile("../../internal/obs/perf/testdata/report_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/perf_panel_parent.txt")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write(body) }))
	defer ts.Close()
	var out strings.Builder
	renderPerf(&out, ts.Client(), config{base: ts.URL, width: 16})
	if out.String() != string(want) {
		t.Fatalf("PERF panel from the parent-shaped artifact:\n%s\nwant:\n%s", out.String(), want)
	}
}

func TestRenderFrameWithoutHistoryDegrades(t *testing.T) {
	ts := topServer(t, false, false)
	var out strings.Builder
	if err := renderFrame(&out, ts.Client(), topConfig(ts)); err != nil {
		t.Fatal(err)
	}
	frame := out.String()
	if !strings.Contains(frame, "history disabled") ||
		!strings.Contains(frame, "unavailable without history") {
		t.Fatalf("frame does not degrade gracefully:\n%s", frame)
	}
}

// TestRenderFramePerfPanelWithoutHistory: perf is independent of
// history — a -perf-out run without -hist-out must still render its
// PERF panel after the history-disabled degradation notes.
func TestRenderFramePerfPanelWithoutHistory(t *testing.T) {
	ts := topServer(t, false, true)
	var out strings.Builder
	if err := renderFrame(&out, ts.Client(), topConfig(ts)); err != nil {
		t.Fatal(err)
	}
	frame := out.String()
	if !strings.Contains(frame, "history disabled") {
		t.Fatalf("frame missing history degradation note:\n%s", frame)
	}
	if !strings.Contains(frame, "PERF") || !strings.Contains(frame, "wan.round/dynamic") {
		t.Fatalf("PERF panel missing from history-less frame:\n%s", frame)
	}
}

func TestRenderFrameUnreachable(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close() // connection refused from here on
	var out strings.Builder
	cfg := topConfig(ts)
	if err := renderFrame(&out, &http.Client{Timeout: time.Second}, cfg); err == nil {
		t.Fatal("want error for unreachable operations plane")
	}
}

func TestSparkline(t *testing.T) {
	if s := sparkline(nil, 8); s != "" {
		t.Fatalf("empty series → %q", s)
	}
	// A flat series renders mid-level bars.
	if s := sparkline([]float64{5, 5, 5}, 3); s != "▅▅▅" {
		t.Fatalf("flat series → %q", s)
	}
	// A ramp starts at the lowest level and ends at the highest.
	ramp := sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if ramp != "▁▂▃▄▅▆▇█" {
		t.Fatalf("ramp → %q", ramp)
	}
	// Width is clamped to the sample count.
	if s := sparkline([]float64{1, 2}, 10); len([]rune(s)) != 2 {
		t.Fatalf("clamped width → %q", s)
	}
}
