package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/sli"
)

// stubAdmit is the Admit hook of a server whose test sends no
// /demandz probe.
func stubAdmit([]float64) AdmitResponse { return AdmitResponse{} }

// mustNew builds a server or fails the test.
func mustNew(tb testing.TB, opts Options) *Server {
	tb.Helper()
	s, err := New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	return s
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
	s := mustNew(t, Options{Obs: obs.New(), Tool: "serve-test", Seed: 7, Admit: stubAdmit})
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

func TestMetricsWithoutRegistry404s(t *testing.T) {
	s := mustNew(t, Options{Obs: nil, Admit: stubAdmit})
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
	o := obs.New()
	o.SetSimTime(90 * time.Minute)
	o.Event("round.complete")
	o.Gauge("g", "g").Set(1)
	s := mustNew(t, Options{Obs: o, Tool: "rwc-wansim", Seed: 2017, Admit: stubAdmit})
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
	o := obs.New()
	// sseBuffer must exceed the 100 live events below: delivery may
	// then never depend on how promptly the handler goroutine drains
	// (under -race it can stall long enough to overflow a small buffer,
	// which correctly drops events — but this test asserts lossless
	// delivery, so it must make loss impossible, not just unlikely).
	s := mustNew(t, Options{Obs: o, Admit: stubAdmit})
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
	o := obs.New()
	s := mustNew(t, Options{Obs: o, Admit: stubAdmit})
	// One backlog event parks the handler in its first body write, so the
	// client reads nothing while the run floods more events than the
	// subscription buffer holds: exactly the overflow is dropped.
	o.Event("backlog", obs.A("i", 0))
	gw := &gatedWriter{header: make(http.Header), attempt: make(chan struct{}), release: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/traces", nil).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(gw, req)
	}()
	<-gw.attempt

	const overflow = 100
	for i := 0; i < sseBuffer+overflow; i++ {
		o.Event("flood", obs.A("i", i))
	}
	close(gw.release)

	// The handler syncs the drop counter as it forwards what survived
	// the buffer.
	slowKey := sli.MetricSSEDroppedTotal + `{cause="` + sli.DropSlowConsumer + `"}`
	waitFor(t, func() bool {
		return s.SLI().Registry().Totals()[slowKey] > 0
	}, "dropped events counted in "+slowKey)
	cancel()
	<-done
	if got := s.SLI().Registry().Totals()[slowKey]; got != overflow {
		t.Fatalf("%s = %v, want %d", slowKey, got, overflow)
	}
	seqs := sseSeqs(t, readSSEFrames(t, bufio.NewReader(strings.NewReader(gw.buf.String())), 1))
	if seqs[0] != 1 {
		t.Fatalf("first delivered event seq = %d; drop-newest must preserve the prefix", seqs[0])
	}
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
	o := obs.New()
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
	o := obs.New()
	s, err := Start("127.0.0.1:0", Options{Obs: o, Tool: "t", Seed: 1, Admit: stubAdmit})
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
		var m, tr bytes.Buffer
		if err := o.Metrics.WritePrometheus(&m); err != nil {
			t.Fatal(err)
		}
		if err := o.Trace.WriteJSONL(&tr); err != nil {
			t.Fatal(err)
		}
		return m.String() + "\x00" + tr.String()
	}

	plain := obs.New()
	record(plain)

	// The served run is recorded while every kind of client hits the
	// server at once: two /traces subscribers reading the stream, and
	// /metrics, /queryz, /sliz and /demandz clients each requesting in
	// a loop.
	served := obs.New()
	s := mustNew(t, Options{Obs: served, Admit: func(volumes []float64) AdmitResponse {
		return AdmitAgainst(3, "dynamic", 800, 500, volumes)
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var clients, started sync.WaitGroup
	stop := func() {
		cancel()
		clients.Wait()
	}
	defer stop()
	var events [2]atomic.Int64
	for i := range events {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/traces", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		clients.Add(1)
		go func() {
			defer clients.Done()
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				if strings.HasPrefix(sc.Text(), "data: ") {
					events[i].Add(1)
				}
			}
		}()
	}
	request := func(method, path, body string) func() error {
		return func() error {
			req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
			if err != nil {
				return err
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("%s %s = %d", method, path, resp.StatusCode)
			}
			return nil
		}
	}
	// loop runs do until the test cancels ctx; started is released once
	// its first request has been answered.
	loop := func(do func() error) {
		clients.Add(1)
		started.Add(1)
		go func() {
			defer clients.Done()
			err := do()
			started.Done()
			for err == nil && ctx.Err() == nil {
				err = do()
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	var batches atomic.Int64
	post := request(http.MethodPost, "/demandz", `{"demands":[{"src":0,"dst":1,"gbps":200},{"src":1,"dst":2,"gbps":150}]}`)
	loop(request(http.MethodGet, "/metrics", ""))
	loop(request(http.MethodGet, "/queryz?q="+sli.MetricDecisionsPerSec+"&op=last", ""))
	loop(request(http.MethodGet, "/sliz", ""))
	loop(func() error { batches.Add(1); return post() })
	started.Wait()

	record(served)
	for i := range events {
		waitFor(t, func() bool { return events[i].Load() == 10 }, fmt.Sprintf("subscriber %d to see all 10 events", i))
	}
	stop()
	if got := s.SLI().Registry().Totals()[sli.MetricDemandBatches]; got != float64(batches.Load()) {
		t.Fatalf("SLI demand batches = %v, clients posted %d", got, batches.Load())
	}
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
