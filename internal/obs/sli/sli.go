// Package sli turns the operations plane inward: the service ledger of
// every served run (rwc-wansim and rwc-wansimd with -serve), published
// as rwc_sli_* series in a layer-owned registry that is never merged
// into run artifacts. internal/obs/serve builds one per server; it is
// the only place a live event — a round, a scrape, an SSE subscriber or
// drop, a reload — is counted.
//
// The layer answers "is the service healthy" — decisions per second,
// round and scrape latency, SSE fan-out drops, config-reload outcomes,
// uptime — the way the simulation's own registry answers "is the
// network healthy". The two must never mix: a served run with a fixed
// round budget is required to emit byte-identical artifacts to the
// same run unserved, so everything here lives on the serve side of
// that line, like internal/obs/perf's wall-clock side channel.
//
// Wall-clock discipline: this package sits under internal/obs and is
// subject to the nowalltime lint rule, so it never reads a clock. All
// durations arrive by injection — the daemon measures round latency
// against its own wall clock (cmd/ and internal/daemon are outside the
// rule) and calls RoundComplete; the serve layer times its own scrapes
// and calls ScrapeObserved; Tick carries the current uptime. The
// layer's SimClock is therefore "service uptime", and the burn-rate
// alert windows (round_latency_slo, scrape_latency_slo, reusing
// internal/obs/alert verbatim) are windows over uptime: each Tick the
// engine samples the latest round and scrape latency once. The layer's
// history store keeps every rwc_sli_* observation for /queryz; the
// rules do not read it.
//
// Like every obs sink, a nil *Layer is the disabled state — the layer
// of a run that is not served: all methods are nil-receiver-safe, so
// the daemon calls unconditionally.
package sli

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/obs/hist"
)

// Canonical rwc_sli_* series names. Constants so call sites and the
// seriesname lint agree on the catalog, and so rwc-top / CI greps have
// one spelling to reference.
const (
	MetricRoundsTotal      = "rwc_sli_rounds_total"
	MetricDecisionsTotal   = "rwc_sli_decisions_total"
	MetricDecisionsPerSec  = "rwc_sli_decisions_per_second"
	MetricRoundLatency     = "rwc_sli_round_latency_seconds"
	MetricRoundLatencyLast = "rwc_sli_round_latency_last_seconds"
	MetricScrapesTotal     = "rwc_sli_scrapes_total"
	MetricScrapeLatency    = "rwc_sli_scrape_latency_seconds"
	MetricScrapeLatLast    = "rwc_sli_scrape_latency_last_seconds"
	MetricSSESubscribers   = "rwc_sli_sse_subscribers"
	MetricSSEDroppedTotal  = "rwc_sli_sse_dropped_total"
	MetricReloadsTotal     = "rwc_sli_config_reloads_total"
	MetricGeneration       = "rwc_sli_config_generation"
	MetricUptimeRounds     = "rwc_sli_uptime_rounds"
	MetricUptimeSeconds    = "rwc_sli_uptime_seconds"
	MetricAlertsFiring     = "rwc_sli_alerts_firing"
	MetricDemandBatches    = "rwc_sli_demand_batches_total"
	MetricDemandsTotal     = "rwc_sli_demands_total"
	MetricDemandGbpsTotal  = "rwc_sli_demand_gbps_total"
	MetricDemandAdmitGbps  = "rwc_sli_demand_admitted_gbps_total"
)

// Prefix is the family-name prefix the serve layer exposes on shared
// scrapes (Registry.WritePrometheusPrefix): everything above, and
// nothing the layer's internal alert engine books under alerts_*.
const Prefix = "rwc_sli_"

// Drop causes for MetricSSEDroppedTotal's cause label.
const (
	DropSlowConsumer = "slow-consumer"
	DropShutdown     = "shutdown"
)

// Reload results for MetricReloadsTotal's result label.
const (
	ReloadSuccess = "success"
	ReloadNoop    = "noop"
	ReloadFailure = "failure"
)

// latencyBuckets spans sub-millisecond scrapes to rounds that blow a
// multi-second budget (seconds, powers of ~5).
var latencyBuckets = []float64{0.0002, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

const (
	// histRetain caps raw samples per SLI history series: the SLI plane
	// is low-cardinality and long-lived, so it retains more than a sim
	// round budget would.
	histRetain = 512
	// rateWindow is the uptime span the decisions/sec gauge averages
	// over.
	rateWindow = 30 * time.Second
	// eventKeep caps the recent-event ring /sliz serves.
	eventKeep = 32
)

// Options configures a Layer.
type Options struct {
	// Tool names the served process in /sliz and the history archive.
	Tool string
	// Seed identifies the underlying run in the history archive.
	Seed uint64
}

// Event is one service-lifecycle event kept for /sliz: config reloads,
// generation changes, shutdown passes.
type Event struct {
	UptimeNs int64  `json:"uptime_ns"`
	Kind     string `json:"kind"`
	Detail   string `json:"detail,omitempty"`
	Result   string `json:"result,omitempty"`
	Gen      uint64 `json:"generation,omitempty"`
}

// tickPoint is one decisions/sec rate sample boundary.
type tickPoint struct {
	uptime    time.Duration
	decisions float64
}

// Layer owns the service-health telemetry plane.
type Layer struct {
	mu    sync.Mutex
	tool  string
	clock *obs.SimClock
	// o is the layer's registry on its uptime clock; it has no tracer:
	// the /sliz event ring is the one record of service events.
	o     *obs.Obs
	store *hist.Store
	eng   *alert.Engine

	ticks      int
	generation uint64
	decisions  float64
	rounds     uint64
	window     []tickPoint
	events     []Event

	// Handles of the rwc_sli_* series (DESIGN "Observability"). New
	// resolves the five it pre-registers; every other group is resolved
	// by the first call that writes it, so a scrape shows a family only
	// once its event has happened.
	decisionsPerSec, generationGauge, uptimeRounds, uptimeSeconds, alertsFiring *obs.Gauge

	round map[string]*roundSeries // by policy, under mu

	scrapeOnce    sync.Once
	scrapes       *obs.Counter
	scrapeLatency *obs.Histogram
	scrapeLast    *obs.Gauge

	demandOnce                                            sync.Once
	demandBatches, demands, demandOffered, demandAdmitted *obs.Counter
}

// roundSeries are one policy's RoundComplete series.
type roundSeries struct {
	rounds, decisions *obs.Counter
	latency           *obs.Histogram
	latencyLast       *obs.Gauge
}

// New builds a Layer with its own registry, uptime clock, history
// store (for /queryz), and burn-rate alert engine (DefaultServiceRules).
func New(opts Options) *Layer {
	l := &Layer{tool: opts.Tool, clock: obs.NewSimClock(), round: make(map[string]*roundSeries)}
	l.o = &obs.Obs{Metrics: obs.NewRegistry(), Clock: l.clock}
	l.store = hist.New(hist.Options{
		Retain: histRetain,
		Tool:   opts.Tool,
		Seed:   opts.Seed,
	})
	l.o.Metrics.SetHistory(l.store.Root().Bind(l.clock))
	l.eng = alert.NewEngine(l.o, DefaultServiceRules()...)
	// Pre-register the zero-valued core series so a scrape taken before
	// the first round still shows the catalog (CI greps for presence).
	l.decisionsPerSec = l.o.Gauge(MetricDecisionsPerSec, "Capacity decisions per second over the rate window (service throughput SLI).")
	l.generationGauge = l.o.Gauge(MetricGeneration, "Monotonic config generation; bumps on every accepted reload.")
	l.generationGauge.Set(1)
	l.uptimeRounds = l.o.Gauge(MetricUptimeRounds, "Simulation rounds completed since the daemon started.")
	l.uptimeSeconds = l.o.Gauge(MetricUptimeSeconds, "Daemon uptime (injected wall seconds).")
	l.alertsFiring = l.o.Gauge(MetricAlertsFiring, "SLI burn-rate alerts currently firing.")
	l.generation = 1
	return l
}

// Registry is the layer-owned metric registry (nil when disabled).
func (l *Layer) Registry() *obs.Registry {
	if l == nil {
		return nil
	}
	return l.o.Metrics
}

// Hist is the layer-owned history store backing /queryz over rwc_sli_*
// series (nil when disabled).
func (l *Layer) Hist() *hist.Store {
	if l == nil {
		return nil
	}
	return l.store
}

// Tick advances the service plane once per daemon tick: moves the
// uptime clock, refreshes the rate and uptime gauges, and evaluates
// the burn-rate rules on the new timestamp, which samples each latest
// latency gauge once.
func (l *Layer) Tick(uptime time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.clock.Set(uptime)
	l.ticks++
	tick := l.ticks
	l.window = append(l.window, tickPoint{uptime: uptime, decisions: l.decisions})
	for len(l.window) > 1 && uptime-l.window[0].uptime > rateWindow {
		l.window = l.window[1:]
	}
	rate := 0.0
	if n := len(l.window); n > 1 {
		span := l.window[n-1].uptime - l.window[0].uptime
		if span > 0 {
			rate = (l.window[n-1].decisions - l.window[0].decisions) / span.Seconds()
		}
	}
	l.mu.Unlock()

	l.decisionsPerSec.Set(rate)
	l.uptimeSeconds.Set(uptime.Seconds())
	l.eng.EvalRound(tick)
	l.alertsFiring.Set(float64(len(l.eng.Active())))
}

// RoundComplete records one finished simulation round: its wall
// latency (measured by the daemon, outside the nowalltime boundary)
// and its decision count (wavelength capacity changes). Safe for
// concurrent calls from policy workers.
func (l *Layer) RoundComplete(policy string, latency time.Duration, decisions int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	h := l.round[policy]
	if h == nil {
		pl := obs.L("policy", policy)
		h = &roundSeries{
			rounds:      l.o.Counter(MetricRoundsTotal, "Simulation rounds completed by the daemon, by policy.", pl),
			decisions:   l.o.Counter(MetricDecisionsTotal, "Capacity decisions (wavelength changes) made by the daemon, by policy.", pl),
			latency:     l.o.Histogram(MetricRoundLatency, "Wall latency of one simulation round (seconds), by policy.", latencyBuckets, pl),
			latencyLast: l.o.Gauge(MetricRoundLatencyLast, "Wall latency of the most recent round (seconds), by policy; round_latency_slo burns on it.", pl),
		}
		l.round[policy] = h
	}
	l.decisions += float64(decisions)
	l.rounds++
	total := l.rounds
	l.mu.Unlock()

	h.rounds.Inc()
	h.decisions.Add(float64(decisions))
	h.latency.Observe(latency.Seconds())
	h.latencyLast.Set(latency.Seconds())
	l.uptimeRounds.Set(float64(total))
}

// ScrapeObserved records one /metrics scrape's wall latency, measured
// by the serve layer.
func (l *Layer) ScrapeObserved(latency time.Duration) {
	if l == nil {
		return
	}
	l.scrapeOnce.Do(func() {
		l.scrapes = l.o.Counter(MetricScrapesTotal, "Self-timed /metrics scrapes served.")
		l.scrapeLatency = l.o.Histogram(MetricScrapeLatency, "Wall latency of one /metrics scrape (seconds).", latencyBuckets)
		l.scrapeLast = l.o.Gauge(MetricScrapeLatLast, "Wall latency of the most recent /metrics scrape (seconds); scrape_latency_slo burns on it.")
	})
	l.scrapes.Inc()
	l.scrapeLatency.Observe(latency.Seconds())
	l.scrapeLast.Set(latency.Seconds())
}

// SSESubscribers publishes the current /traces subscriber count.
func (l *Layer) SSESubscribers(n int) {
	if l == nil {
		return
	}
	l.o.Gauge(MetricSSESubscribers, "Currently connected /traces SSE subscribers.").Set(float64(n)) //nolint:seriesname // cold: once per SSE connect or disconnect
}

// SSEDropped adds n dropped trace events under the given cause
// (DropSlowConsumer or DropShutdown).
func (l *Layer) SSEDropped(cause string, n uint64) {
	if l == nil || n == 0 {
		return
	}
	l.o.Counter(MetricSSEDroppedTotal, "Trace events dropped on the /traces SSE fan-out, by cause.", obs.L("cause", cause)).Add(float64(n)) //nolint:seriesname // cold: once per slow-consumer eviction or shutdown
}

// Reload records one config-reload outcome. Accepted reloads
// (ReloadSuccess and the provable-no-op ReloadNoop) bump the
// generation gauge; ReloadFailure keeps last-known-good and only
// counts. Every outcome lands in the /sliz event ring.
func (l *Layer) Reload(result, detail string) uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	if result != ReloadFailure {
		l.generation++
	}
	gen := l.generation
	uptime := l.clock.Now()
	l.pushEventLocked(Event{UptimeNs: uptime.Nanoseconds(), Kind: "config.reload", Detail: detail, Result: result, Gen: gen})
	l.mu.Unlock()

	l.o.Counter(MetricReloadsTotal, "Config reload attempts, by result (success, noop, failure).", obs.L("result", result)).Inc() //nolint:seriesname // cold: once per SIGHUP
	l.generationGauge.Set(float64(gen))
	return gen
}

// Generation reads the current config generation.
func (l *Layer) Generation() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.generation
}

// Lifecycle records a non-reload service event (start, drain,
// shutdown passes) for /sliz.
func (l *Layer) Lifecycle(kind, detail string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.pushEventLocked(Event{UptimeNs: l.clock.Now().Nanoseconds(), Kind: kind, Detail: detail})
	l.mu.Unlock()
}

// DemandBatch records one /demandz admission answer.
func (l *Layer) DemandBatch(demands int, offeredGbps, admittedGbps float64) {
	if l == nil {
		return
	}
	l.demandOnce.Do(func() {
		l.demandBatches = l.o.Counter(MetricDemandBatches, "Demand batches admitted through /demandz.")
		l.demands = l.o.Counter(MetricDemandsTotal, "Individual demands received through /demandz.")
		l.demandOffered = l.o.Counter(MetricDemandGbpsTotal, "Total demand volume offered through /demandz (Gbps).")
		l.demandAdmitted = l.o.Counter(MetricDemandAdmitGbps, "Demand volume admitted against latest-round headroom (Gbps).")
	})
	l.demandBatches.Inc()
	l.demands.Add(float64(demands))
	l.demandOffered.Add(offeredGbps)
	l.demandAdmitted.Add(admittedGbps)
}

func (l *Layer) pushEventLocked(e Event) {
	l.events = append(l.events, e)
	if len(l.events) > eventKeep {
		l.events = l.events[len(l.events)-eventKeep:]
	}
}

// Snapshot is the /sliz response shape.
type Snapshot struct {
	Tool         string              `json:"tool"`
	Generation   uint64              `json:"generation"`
	UptimeNs     int64               `json:"uptime_ns"`
	Ticks        int                 `json:"ticks"`
	ActiveAlerts []alert.AlertRecord `json:"active_alerts"`
	Totals       map[string]float64  `json:"totals"`
	Events       []Event             `json:"events"`
}

// Snapshot captures the service state for /sliz: generation, uptime,
// active burn-rate alerts, rwc_sli_* totals, and the recent event
// ring.
func (l *Layer) Snapshot() Snapshot {
	if l == nil {
		return Snapshot{}
	}
	l.mu.Lock()
	snap := Snapshot{
		Tool:       l.tool,
		Generation: l.generation,
		UptimeNs:   l.clock.Now().Nanoseconds(),
		Ticks:      l.ticks,
		Events:     append([]Event(nil), l.events...),
	}
	l.mu.Unlock()
	snap.ActiveAlerts = l.eng.Active()
	if snap.ActiveAlerts == nil {
		snap.ActiveAlerts = []alert.AlertRecord{}
	}
	if snap.Events == nil {
		snap.Events = []Event{}
	}
	snap.Totals = map[string]float64{}
	for k, v := range l.o.Metrics.Totals() {
		if len(k) >= len(Prefix) && k[:len(Prefix)] == Prefix {
			snap.Totals[k] = v
		}
	}
	return snap
}
