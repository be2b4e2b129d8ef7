package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/sli"
)

// TestNewRequiresAdmit: /demandz answers through the daemon's Admit
// hook, so a server without one is refused at construction, by New and
// by Start alike (before Start binds anything).
func TestNewRequiresAdmit(t *testing.T) {
	if s, err := New(Options{Obs: obs.New()}); err == nil || s != nil {
		t.Fatalf("New without Admit = %v, %v; want an error", s, err)
	}
	if s, err := Start("127.0.0.1:0", Options{Obs: obs.New()}); err == nil || s != nil {
		t.Fatalf("Start without Admit = %v, %v; want an error", s, err)
	}
}

func TestSlizServesSnapshot(t *testing.T) {
	s := mustNew(t, Options{Obs: obs.New(), Tool: "rwc-wansimd", Seed: 7, Admit: stubAdmit})
	layer := s.SLI()
	layer.Tick(3 * time.Second)
	layer.RoundComplete("dynamic", time.Millisecond, 2)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/sliz")
	if code != http.StatusOK {
		t.Fatalf("/sliz = %d", code)
	}
	var snap struct {
		Tool       string             `json:"tool"`
		Generation uint64             `json:"generation"`
		UptimeNs   int64              `json:"uptime_ns"`
		Totals     map[string]float64 `json:"totals"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/sliz does not parse: %v", err)
	}
	if snap.Tool != "rwc-wansimd" || snap.Generation != 1 || snap.UptimeNs != (3*time.Second).Nanoseconds() {
		t.Fatalf("/sliz header = %+v", snap)
	}
	if snap.Totals[sli.MetricRoundsTotal+`{policy="dynamic"}`] != 1 {
		t.Fatalf("/sliz totals missing the recorded round: %v", snap.Totals)
	}
}

func TestDemandzAdmitsAgainstSnapshot(t *testing.T) {
	s := mustNew(t, Options{Obs: obs.New(), Tool: "rwc-wansimd", Admit: func(volumes []float64) AdmitResponse {
		return AdmitAgainst(4, "dynamic", 1000, 700, volumes)
	}})
	layer := s.SLI()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Non-POST and bad bodies are client errors, not panics.
	if code, _ := get(t, ts, "/demandz"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /demandz = %d, want 405", code)
	}
	resp, err := ts.Client().Post(ts.URL+"/demandz", "application/json", strings.NewReader(`{broken`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body /demandz = %d, want 400", resp.StatusCode)
	}

	// Fill in order against 300 of headroom: 200 fits (100 left), 150
	// does not, 100 fits exactly.
	resp, err = ts.Client().Post(ts.URL+"/demandz", "application/json",
		strings.NewReader(`{"demands":[{"src":0,"dst":1,"gbps":200},{"src":1,"dst":2,"gbps":150},{"src":2,"dst":0,"gbps":100}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ar AdmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	if ar.Round != 4 || ar.Policy != "dynamic" || ar.HeadroomGbps != 300 {
		t.Fatalf("admission snapshot = %+v", ar)
	}
	if ar.Admitted != 2 || ar.Rejected != 1 || ar.AdmittedGbps != 300 || ar.OfferedGbps != 450 {
		t.Fatalf("fill-in-order admission = %+v", ar)
	}

	// The probe landed on the SLI demand counters.
	totals := layer.Registry().Totals()
	if totals[sli.MetricDemandBatches] != 1 || totals[sli.MetricDemandsTotal] != 3 {
		t.Fatalf("SLI demand counters = %v", totals)
	}
	if totals[sli.MetricDemandGbpsTotal] != 450 || totals[sli.MetricDemandAdmitGbps] != 300 {
		t.Fatalf("SLI demand volume counters = %v", totals)
	}
}

// TestDemandzRejectsNegativeVolume: a negative volume would create
// headroom — against a full snapshot it would let a 500 Gbps demand
// in — and the SLI counters, which only add, would lose the batch. It
// is a bad body, and nothing is counted.
func TestDemandzRejectsNegativeVolume(t *testing.T) {
	s := mustNew(t, Options{Obs: obs.New(), Admit: func(volumes []float64) AdmitResponse {
		return AdmitAgainst(4, "dynamic", 100, 100, volumes)
	}})
	rec := postDemandz(s, `{"demands":[{"gbps":-1000},{"gbps":500}]}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("negative volume /demandz = %d %s, want 400", rec.Code, rec.Body)
	}
	if got := s.SLI().Registry().Totals()[sli.MetricDemandBatches]; got != 0 {
		t.Fatalf("%s = %v after a rejected batch, want 0", sli.MetricDemandBatches, got)
	}
	if rec := postDemandz(s, `{"demands":[{"gbps":1e308},{"gbps":1e308}]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("overflowing batch /demandz = %d %s, want 400", rec.Code, rec.Body)
	}
}

// postDemandz posts body to s's /demandz in-process.
func postDemandz(s *Server, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/demandz", strings.NewReader(body)))
	return rec
}

// FuzzDemandz: no body makes the handler panic, and every 200 answers
// the whole batch — admitted + rejected = len(demands) — with
// 0 ≤ admitted_gbps ≤ min(offered_gbps, headroom_gbps).
func FuzzDemandz(f *testing.F) {
	f.Add([]byte(`{"demands":[{"src":0,"dst":1,"gbps":200},{"src":1,"dst":2,"gbps":150},{"src":2,"dst":0,"gbps":100}]}`))
	s := mustNew(f, Options{Admit: func(volumes []float64) AdmitResponse {
		return AdmitAgainst(4, "dynamic", 1000, 700, volumes)
	}})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := postDemandz(s, string(body))
		if rec.Code != http.StatusOK {
			return
		}
		var req demandzRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		var ar AdmitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
			t.Fatalf("200 reply does not parse: %v\n%s", err, rec.Body)
		}
		if ar.Admitted+ar.Rejected != len(req.Demands) {
			t.Fatalf("admitted %d + rejected %d != %d demands", ar.Admitted, ar.Rejected, len(req.Demands))
		}
		if ar.AdmittedGbps < 0 || ar.AdmittedGbps > ar.OfferedGbps || ar.AdmittedGbps > ar.HeadroomGbps {
			t.Fatalf("admitted_gbps %v outside [0, min(offered %v, headroom %v)]", ar.AdmittedGbps, ar.OfferedGbps, ar.HeadroomGbps)
		}
	})
}

func TestAdmitAgainstZeroHeadroom(t *testing.T) {
	ar := AdmitAgainst(-1, "", 0, 0, []float64{10})
	if ar.Round != -1 || ar.HeadroomGbps != 0 || ar.Admitted != 0 || ar.Rejected != 1 {
		t.Fatalf("pre-first-round admission = %+v", ar)
	}
	// Oversubscribed snapshots never report negative headroom.
	if ar := AdmitAgainst(0, "p", 100, 250, nil); ar.HeadroomGbps != 0 {
		t.Fatalf("oversubscribed headroom = %v, want 0", ar.HeadroomGbps)
	}
}

// TestScrapeSelfTimingFeedsSLI: each /metrics scrape lands one sample
// on the SLI scrape counters, and the scrape body carries the
// rwc_sli_* families without leaking the layer's internal series.
func TestScrapeSelfTimingFeedsSLI(t *testing.T) {
	o := obs.New()
	s := mustNew(t, Options{Obs: o, Tool: "rwc-wansimd", Admit: stubAdmit})
	layer := s.SLI()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get(t, ts, "/metrics")
	_, body := get(t, ts, "/metrics")
	totals := layer.Registry().Totals()
	if totals[sli.MetricScrapesTotal] < 2 {
		t.Fatalf("%s = %v, want >= 2", sli.MetricScrapesTotal, totals[sli.MetricScrapesTotal])
	}
	if !strings.Contains(body, sli.MetricScrapesTotal) {
		t.Fatalf("/metrics body missing %s:\n%s", sli.MetricScrapesTotal, body)
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "alerts_") {
			t.Fatalf("SLI-internal alert series leaked into the shared scrape: %s", line)
		}
	}
	// The run registry (artifact surface) saw none of it.
	if len(o.Metrics.Totals()) != 0 {
		t.Fatalf("scrape accounting wrote into the app registry: %v", o.Metrics.Totals())
	}
}

// gatedWriter is an SSE ResponseWriter whose first body write parks
// until the test releases it — a deterministic way to hold the
// handler between its Subscribe and its Draining() check.
type gatedWriter struct {
	header  http.Header
	attempt chan struct{} // closed on first Write
	release chan struct{} // Writes park until closed
	once    sync.Once
	mu      sync.Mutex
	buf     bytes.Buffer
}

func (g *gatedWriter) Header() http.Header { return g.header }
func (g *gatedWriter) WriteHeader(int)     {}
func (g *gatedWriter) Flush()              {}
func (g *gatedWriter) Write(p []byte) (int, error) {
	g.once.Do(func() { close(g.attempt) })
	<-g.release
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.Write(p)
}

// TestSSEShutdownDropsCountedByCause is the drop-accounting regression
// test for graceful drain: events buffered for a subscriber but
// undelivered when Drain ends the session are counted under
// cause="shutdown" in the service ledger, and never under
// cause="slow-consumer".
func TestSSEShutdownDropsCountedByCause(t *testing.T) {
	o := obs.New()
	s := mustNew(t, Options{Obs: o, Tool: "rwc-wansimd", Admit: stubAdmit})

	// One backlog event makes the first body write deterministic.
	o.Event("backlog", obs.A("i", 0))

	gw := &gatedWriter{header: make(http.Header), attempt: make(chan struct{}), release: make(chan struct{})}
	req := httptest.NewRequest(http.MethodGet, "/traces", nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(gw, req)
	}()

	// The handler has subscribed and is parked mid-backlog delivery;
	// everything emitted now is buffered for it but never delivered.
	<-gw.attempt
	for i := 0; i < 3; i++ {
		o.Event("late", obs.A("i", i))
	}
	s.Drain()
	close(gw.release)
	<-done

	shutKey := sli.MetricSSEDroppedTotal + `{cause="` + sli.DropShutdown + `"}`
	slowKey := sli.MetricSSEDroppedTotal + `{cause="` + sli.DropSlowConsumer + `"}`
	totals := s.SLI().Registry().Totals()
	if totals[shutKey] != 3 {
		t.Fatalf("%s = %v, want 3", shutKey, totals[shutKey])
	}
	if totals[slowKey] != 0 {
		t.Fatalf("%s = %v, want 0 (a drain is not the client's slowness)", slowKey, totals[slowKey])
	}
	// The delivered stream is the backlog prefix, then the session ended.
	if got := gw.buf.String(); !strings.Contains(got, `"backlog"`) || strings.Contains(got, `"late"`) {
		t.Fatalf("delivered stream = %q; want the backlog only", got)
	}
}
