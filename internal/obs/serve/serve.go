// Package serve is the live half of the operations plane: an HTTP
// server exposing a running simulation's observability bundle —
// Prometheus metrics, health/readiness, run info and a live SSE trace
// tail — without perturbing the run.
//
// The cardinal rule is that serving is read-only over snapshots: every
// endpoint reads Registry.Snapshot(), Tracer.Subscribe() backlogs, or
// immutable run info. Every live event — a round, a scrape, an SSE
// subscriber or drop, a reload — is counted once, in the server's
// service ledger (an internal/obs/sli Layer that New builds), which is
// rendered on /metrics and /sliz but never written into run artifacts.
// A run with -serve therefore produces byte-identical
// metrics/trace/manifest files to the same run without it — the CI
// live-serve smoke asserts exactly this with cmp(1).
//
// This package sits under internal/obs and is therefore subject to the
// nowalltime lint rule. The few wall-clock reads HTTP serving
// legitimately needs (the SSE heartbeat ticker) are individually
// suppressed with justifications; nothing here feeds wall time back
// into the simulation or its artifacts.
package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/hist"
	"repro/internal/obs/perf"
	"repro/internal/obs/sli"
)

// Options configures a Server.
type Options struct {
	// Obs is the running simulation's observability bundle. Individual
	// nil sinks degrade per endpoint (/metrics without a registry and
	// /traces without a tracer answer 404).
	Obs *obs.Obs
	// Tool and Seed identify the run on /runz, /sliz and the service
	// ledger's history.
	Tool string
	Seed uint64
	// Flight is the run's flight recorder (nil when recording is off).
	// /metrics appends its recorder-owned labeled link series
	// (wan_link_snr_db{link=...} and friends) after the app registry.
	// Like the service ledger, those series never enter run artifacts —
	// the flight log carries its own deterministic copy.
	Flight *flight.Recorder
	// Hist is the run's metrics-history store (nil when history is
	// off). /queryz answers range queries and /seriesz lists series over
	// it and the service ledger's store. Queries read merged snapshots
	// under the store lock, never blocking recording for longer than one
	// copy.
	Hist *hist.Store
	// Perf is the run's wall-clock perf recorder (nil when -perf-out is
	// off). /perfz serves its live snapshot — phase latencies, memory
	// deltas, and the registry's rwc_work_* counters — and answers 404
	// when nil. Like every perf reading, the snapshot never enters the
	// deterministic run artifacts.
	Perf *perf.Recorder
	// Admit answers /demandz feasibility probes against the daemon's
	// latest-round snapshot (nil answers 404). The input is the probe's
	// per-demand volumes; the response must be read-only with respect
	// to simulation state.
	Admit func(volumes []float64) AdmitResponse
}

// Server is the operations-plane HTTP server. Construct with New (for
// tests, via Handler) or Start (to actually listen).
type Server struct {
	opts Options
	mux  *http.ServeMux
	// sli is the service ledger: /metrics appends its rwc_sli_* families
	// and times itself into it, /sliz serves its snapshot, /queryz and
	// /seriesz extend over its history store, the SSE handler reports
	// subscribers and per-cause drops into it, and the daemon reports
	// rounds, ticks, reloads and lifecycle events through SLI().
	sli        *sli.Layer
	ready      atomic.Bool
	sseClients atomic.Int64
	ln         net.Listener
	srv        *http.Server
	// drainCh closes on Drain(): pass one of the graceful two-pass
	// shutdown. SSE sessions end, counting undelivered buffered events
	// as cause="shutdown" drops; the listener stays up for final
	// scrapes until Close().
	drainCh   chan struct{}
	drainOnce sync.Once
}

// New builds a server without binding a listener.
func New(opts Options) *Server {
	s := &Server{
		opts:    opts,
		mux:     http.NewServeMux(),
		sli:     sli.New(sli.Options{Tool: opts.Tool, Seed: opts.Seed}),
		drainCh: make(chan struct{}),
	}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/sliz", s.handleSliz)
	s.mux.HandleFunc("/demandz", s.handleDemandz)
	s.mux.HandleFunc("/queryz", s.handleQueryz)
	s.mux.HandleFunc("/seriesz", s.handleSeriesz)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/runz", s.handleRunz)
	s.mux.HandleFunc("/traces", s.handleTraces)
	s.mux.HandleFunc("/perfz", s.handlePerfz)
	return s
}

// Start builds a server and binds it to addr, serving in a background
// goroutine. The returned server's Addr reports the bound address
// (useful with ":0").
func Start(addr string, opts Options) (*Server, error) {
	s := New(opts)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		// ErrServerClosed is the normal Close() path; anything else has
		// already been reported to the client side.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Handler exposes the route mux for httptest-based tests.
func (s *Server) Handler() http.Handler { return s.mux }

// SLI is the server's service ledger (nil on a nil server, that is,
// for a run that is not served).
func (s *Server) SLI() *sli.Layer {
	if s == nil {
		return nil
	}
	return s.sli
}

// Addr reports the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// SetReady flips the /readyz state. cmd/ marks ready once flags are
// validated and the simulation is constructed.
func (s *Server) SetReady(ready bool) {
	if s == nil {
		return
	}
	s.ready.Store(ready)
}

// Drain begins the graceful half of the two-pass shutdown: /readyz
// flips unready (load balancers stop sending), SSE sessions end with
// their undelivered buffered events counted as cause="shutdown" drops,
// and the listener stays up so final scrapes and artifact checks can
// still read the terminal state. Idempotent; safe before Start and on
// nil.
func (s *Server) Drain() {
	if s == nil {
		return
	}
	s.ready.Store(false)
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	if s == nil {
		return false
	}
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// Close stops the listener and any in-flight handlers (SSE streams see
// their connections reset). Safe before Start and on nil.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// handleMetrics renders three sources in one exposition: the run
// registry, the flight recorder's registry, and the service ledger's
// rwc_sli_* families. Their family names are disjoint, so the
// concatenation is a valid scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	appReg := s.appRegistry()
	if appReg == nil {
		http.Error(w, "metrics registry disabled for this run", http.StatusNotFound)
		return
	}
	// Scrape self-timing is itself an SLI (scrape_latency_slo burns on
	// it). The wall read stays on the serve/sli side of the
	// determinism line: it is injected into the SLI layer, never into
	// the run bundle or its artifacts.
	scrapeStart := time.Now() //nolint:nowalltime // /metrics self-timing for the SLI layer; no simulation state involved
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := appReg.WritePrometheus(w); err != nil {
		return // client went away mid-write; nothing to clean up
	}
	// The flight recorder's labeled per-link series (wan_link_*,
	// obs_flight_*) ride the same scrape.
	if s.opts.Flight != nil {
		_ = s.opts.Flight.Registry().WritePrometheus(w)
	}
	// The ledger renders only its rwc_sli_* families: its internal
	// alert-engine bookkeeping (alerts_*) would collide with the app
	// registry's families on a shared scrape, and /sliz carries that
	// state instead.
	_ = s.sli.Registry().WritePrometheusPrefix(w, sli.Prefix)
	// Counted after rendering so a scrape reports the scrapes that
	// completed before it.
	s.sli.ScrapeObserved(time.Since(scrapeStart)) //nolint:nowalltime // closes the /metrics self-timing window opened above
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// runzJSON is the /runz response shape: enough to identify a run and
// see where it is, in the spirit of /debug/vars.
type runzJSON struct {
	Tool         string `json:"tool"`
	Seed         uint64 `json:"seed"`
	GoVersion    string `json:"go_version"`
	Ready        bool   `json:"ready"`
	SimNowNs     int64  `json:"sim_now_ns"`
	TraceEvents  int    `json:"trace_events"`
	MetricSeries int    `json:"metric_series"`
	SSEClients   int    `json:"sse_clients"`
}

func (s *Server) handleRunz(w http.ResponseWriter, r *http.Request) {
	o := s.opts.Obs
	info := runzJSON{
		Tool:       s.opts.Tool,
		Seed:       s.opts.Seed,
		GoVersion:  runtime.Version(),
		Ready:      s.ready.Load(),
		SSEClients: int(s.sseClients.Load()),
	}
	if o != nil {
		info.SimNowNs = o.Clock.Now().Nanoseconds()
		info.TraceEvents = o.Trace.Len()
		if o.Metrics != nil {
			info.MetricSeries = len(o.Metrics.Snapshot())
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(info)
}

// handlePerfz serves the perf recorder's live snapshot: per-phase wall
// latencies, memory deltas, and the deterministic rwc_work_* counters
// read from the run's registry at request time. Wall readings stay on
// this side channel; the snapshot is never written into run artifacts.
func (s *Server) handlePerfz(w http.ResponseWriter, r *http.Request) {
	rec := s.opts.Perf
	if rec == nil {
		http.Error(w, "perf capture disabled for this run (enable with -perf-out)", http.StatusNotFound)
		return
	}
	var work map[string]float64
	if s.opts.Obs != nil && s.opts.Obs.Metrics != nil {
		work = perf.FilterWork(s.opts.Obs.Metrics.Totals())
	}
	w.Header().Set("Content-Type", "application/json")
	if err := rec.WriteJSON(w, work); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) appRegistry() *obs.Registry {
	if s.opts.Obs == nil {
		return nil
	}
	return s.opts.Obs.Metrics
}

func (s *Server) tracer() *obs.Tracer {
	if s.opts.Obs == nil {
		return nil
	}
	return s.opts.Obs.Trace
}
