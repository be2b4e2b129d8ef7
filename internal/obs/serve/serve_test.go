package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func newTestBundle(t *testing.T) *obs.Obs {
	t.Helper()
	o := obs.New("serve-test")
	o.Manifest.SetSeed(7)
	return o
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHealthAndReadiness(t *testing.T) {
	s := New(Options{Obs: newTestBundle(t), Tool: "serve-test", Seed: 7})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, body := get(t, ts, "/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _ := get(t, ts, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before SetReady = %d, want 503", code)
	}
	s.SetReady(true)
	if code, body := get(t, ts, "/readyz"); code != http.StatusOK || body != "ready\n" {
		t.Fatalf("/readyz after SetReady = %d %q", code, body)
	}
	s.SetReady(false)
	if code, _ := get(t, ts, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after SetReady(false) = %d, want 503", code)
	}
}

func TestMetricsServesAppAndServerRegistries(t *testing.T) {
	o := newTestBundle(t)
	o.Counter("app_total", "app counter").Add(3)
	s := New(Options{Obs: o})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Two scrapes: the second must see the first counted.
	get(t, ts, "/metrics")
	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	totals, err := obs.PromTotals(strings.NewReader(body))
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	if totals["app_total"] != 3 {
		t.Fatalf("app_total = %v, want 3", totals["app_total"])
	}
	if totals["obs_scrapes_total"] != 1 {
		t.Fatalf("obs_scrapes_total on second scrape = %v, want 1", totals["obs_scrapes_total"])
	}
	// Server bookkeeping must not leak into the app registry (artifacts).
	for key := range o.Metrics.Totals() {
		if strings.HasPrefix(key, "obs_") {
			t.Fatalf("server-owned series %s leaked into the app registry", key)
		}
	}
}

func TestMetricsWithoutRegistry404s(t *testing.T) {
	s := New(Options{Obs: nil})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, _ := get(t, ts, "/metrics"); code != http.StatusNotFound {
		t.Fatalf("/metrics without registry = %d, want 404", code)
	}
	if code, _ := get(t, ts, "/traces"); code != http.StatusNotFound {
		t.Fatalf("/traces without tracer = %d, want 404", code)
	}
}

func TestRunzReportsRunInfo(t *testing.T) {
	o := newTestBundle(t)
	o.SetSimTime(90 * time.Minute)
	o.Event("round.complete")
	o.Gauge("g", "g").Set(1)
	s := New(Options{Obs: o, Tool: "rwc-wansim", Seed: 2017})
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/runz")
	if code != http.StatusOK {
		t.Fatalf("/runz = %d", code)
	}
	var info struct {
		Tool         string `json:"tool"`
		Seed         uint64 `json:"seed"`
		Ready        bool   `json:"ready"`
		SimNowNs     int64  `json:"sim_now_ns"`
		TraceEvents  int    `json:"trace_events"`
		MetricSeries int    `json:"metric_series"`
	}
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatalf("/runz is not JSON: %v\n%s", err, body)
	}
	if info.Tool != "rwc-wansim" || info.Seed != 2017 || !info.Ready {
		t.Fatalf("runz identity wrong: %+v", info)
	}
	if info.SimNowNs != (90 * time.Minute).Nanoseconds() {
		t.Fatalf("sim_now_ns = %d", info.SimNowNs)
	}
	if info.TraceEvents != 1 || info.MetricSeries != 1 {
		t.Fatalf("runz counts wrong: %+v", info)
	}
}

func TestPprofIndexServes(t *testing.T) {
	s := New(Options{Obs: newTestBundle(t)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, body := get(t, ts, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d (goroutine profile missing)", code)
	}
}

// sseFrame is one parsed `event:`/`id:`/`data:` frame.
type sseFrame struct {
	event string
	data  string
}

// readSSEFrames consumes frames from the stream until n trace frames
// have arrived (heartbeat comments are skipped).
func readSSEFrames(t *testing.T, r *bufio.Reader, n int) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	for len(frames) < n {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended after %d/%d frames: %v", len(frames), n, err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.data != "":
			frames = append(frames, cur)
			cur = sseFrame{}
		}
	}
	return frames
}

func sseSeqs(t *testing.T, frames []sseFrame) []int {
	t.Helper()
	seqs := make([]int, len(frames))
	for i, f := range frames {
		if f.event != "trace" {
			t.Fatalf("frame %d has event %q, want trace", i, f.event)
		}
		var rec struct {
			Seq int `json:"seq"`
		}
		if err := json.Unmarshal([]byte(f.data), &rec); err != nil {
			t.Fatalf("frame %d data is not a trace JSON line: %v (%s)", i, err, f.data)
		}
		seqs[i] = rec.Seq
	}
	return seqs
}

func TestSSEMidRunJoinSeesEveryEventOnce(t *testing.T) {
	o := newTestBundle(t)
	// The buffer must exceed the 100 live events below: delivery may
	// then never depend on how promptly the handler goroutine drains
	// (under -race it can stall long enough to overflow a small buffer,
	// which correctly drops events — but this test asserts lossless
	// delivery, so it must make loss impossible, not just unlikely).
	s := New(Options{Obs: o, SSEBuffer: 128})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 5 events exist before the client connects.
	for i := 0; i < 5; i++ {
		o.Event("pre", obs.A("i", i))
	}

	resp, err := ts.Client().Get(ts.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)

	// Backlog arrives first.
	backlog := readSSEFrames(t, br, 5)
	// Then live events, written concurrently from several goroutines
	// (the simulation's fan-out workers publish through the same
	// tracer mutex).
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				o.Event("live", obs.A("g", g))
			}
		}(g)
	}
	wg.Wait()
	live := readSSEFrames(t, br, 100)

	seqs := sseSeqs(t, append(backlog, live...))
	for i, seq := range seqs {
		if seq != i+1 {
			t.Fatalf("frame %d carries seq %d; stream must be every event exactly once in order (seqs: %v)", i, seq, seqs[:i+1])
		}
	}
}

func TestSSESlowConsumerDropsAreCounted(t *testing.T) {
	o := newTestBundle(t)
	// Tiny buffer and long heartbeat: the client reads nothing while
	// the run floods events, so drops are guaranteed.
	s := New(Options{Obs: o, SSEBuffer: 1, Heartbeat: time.Hour})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)

	// Wait until the subscription is registered (the gauge flips to 1).
	waitFor(t, func() bool {
		return s.Registry().Totals()["obs_sse_clients"] == 1
	}, "SSE client registration")

	const n = 500
	for i := 0; i < n; i++ {
		o.Event("flood", obs.A("i", i))
	}

	// Drain the stream; the handler syncs the drop counter as it
	// forwards what survived the buffer.
	got := readSSEFrames(t, br, 1)
	seqs := sseSeqs(t, got)
	if seqs[0] != 1 {
		t.Fatalf("first delivered event seq = %d; drop-newest must preserve the prefix", seqs[0])
	}
	resp.Body.Close()

	waitFor(t, func() bool {
		return s.Registry().Totals()[`obs_trace_dropped_total{cause="slow-consumer"}`] > 0
	}, "dropped events counted in obs_trace_dropped_total{cause=\"slow-consumer\"}")
	// The app registry (artifact surface) must stay untouched.
	if len(o.Metrics.Totals()) != 0 {
		t.Fatalf("SSE serving wrote into the app registry: %v", o.Metrics.Totals())
	}
}

func TestSSEDeliveredStreamIsExactPrefixUnderOverflow(t *testing.T) {
	// Pure-subscription variant of the drop test, no HTTP: with a
	// buffer of k and no reader, exactly events 1..k are delivered and
	// the rest counted — deterministically, because drop-newest never
	// depends on timing, only on buffer occupancy.
	o := newTestBundle(t)
	_, sub := o.Trace.Subscribe(4)
	defer sub.Close()
	for i := 0; i < 20; i++ {
		o.Event("e", obs.A("i", i))
	}
	var seqs []int
	for len(sub.C()) > 0 {
		e := <-sub.C()
		seqs = append(seqs, e.Seq)
	}
	if want := []int{1, 2, 3, 4}; fmt.Sprint(seqs) != fmt.Sprint(want) {
		t.Fatalf("delivered %v, want exact prefix %v", seqs, want)
	}
	if sub.Dropped() != 16 {
		t.Fatalf("Dropped() = %d, want 16", sub.Dropped())
	}
}

func TestStartBindsAndCloses(t *testing.T) {
	o := newTestBundle(t)
	s, err := Start("127.0.0.1:0", Options{Obs: o, Tool: "t", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Addr() == "" {
		t.Fatal("Addr() empty after Start")
	}
	resp, err := http.Get("http://" + s.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over real listener = %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/healthz"); err == nil {
		t.Fatal("server still answering after Close")
	}
}

func TestServingDoesNotPerturbArtifacts(t *testing.T) {
	// The byte-identity core of the live-ops design: running the same
	// event/metric sequence with a scraping+tailing server attached
	// produces the same artifact bytes as without one.
	record := func(o *obs.Obs) {
		for r := 1; r <= 10; r++ {
			o.SetSimTime(time.Duration(r) * time.Hour)
			o.Gauge("g", "g", obs.L("policy", "dynamic")).Set(float64(r))
			o.Counter("c_total", "c").Inc()
			o.Event("round", obs.A("round", r))
		}
	}
	artifacts := func(o *obs.Obs) string {
		var m, tr, man bytes.Buffer
		if err := o.Metrics.WritePrometheus(&m); err != nil {
			t.Fatal(err)
		}
		if err := o.Trace.WriteJSONL(&tr); err != nil {
			t.Fatal(err)
		}
		o.FinishManifest()
		if err := o.Manifest.WriteJSON(&man); err != nil {
			t.Fatal(err)
		}
		return m.String() + "\x00" + tr.String() + "\x00" + man.String()
	}

	plain := obs.New("t")
	record(plain)

	served := obs.New("t")
	s := New(Options{Obs: served, SSEBuffer: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	record(served)
	get(t, ts, "/metrics")
	get(t, ts, "/metrics")

	if artifacts(plain) != artifacts(served) {
		t.Fatal("serving perturbed the run artifacts")
	}
}

// waitFor polls cond (serving is asynchronous wall-clock territory;
// this is a test-only synchronization helper).
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
