// Package daemon is the one lifecycle of a WAN run: a reconciler loop
// that advances wan.Simulation rounds on a configurable cadence,
// hot-reloads its config file across generations, reports live service
// SLIs, and shuts down gracefully in two passes (stop intake at a round
// boundary, drain the in-flight round, flush every artifact).
// rwc-wansimd runs it as a service; rwc-wansim runs the same loop with
// no tick, no config file and no SLI layer — a one-shot run is the
// daemon at tick 0, not a second implementation.
//
// The package is deliberately outside the nowalltime fence: pacing,
// uptime, and round latency are wall-clock concerns of the *service*,
// never of the simulation. Every wall reading either stays local
// (pacing) or is injected into the SLI layer as a plain duration, so
// the deterministic registries never observe wall time. A paced run
// with a fixed round budget and no config change produces stdout,
// metrics, trace, hist, and flight artifacts byte-identical to the
// free-running one: the pacing gate only decides *when* a round starts,
// and all service-mode accounting lives in the SLI layer's own
// registry.
package daemon

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs/alert"
	"repro/internal/obs/serve"
	"repro/internal/obs/sli"
	"repro/internal/wan"
)

// artifactTool labels every run artifact of both binaries, so the same
// run writes the same bytes whichever binary ran it.
const artifactTool = "rwc-wansim"

// StopReason says why a generation's gate stopped releasing rounds.
type StopReason int

const (
	// StopBudget: the generation ran its full round budget.
	StopBudget StopReason = iota
	// StopReload: a changed config is waiting; drain and switch.
	StopReload
	// StopSignal: graceful shutdown was requested.
	StopSignal
)

// String names the reason for lifecycle events and logs.
func (r StopReason) String() string {
	switch r {
	case StopReload:
		return "reload"
	case StopSignal:
		return "signal"
	default:
		return "budget"
	}
}

// gate paces rounds. The simulation's Pace hook blocks in allow until
// the round index has been released (ticker cadence) or the gate is
// stopped. Stopping never interrupts a round in flight — Pace is
// consulted only at round boundaries — which is what makes shutdown
// and reload drains safe: whatever was started always completes and
// is recorded before the generation ends.
type gate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	limit   int // highest released round index; all rounds ≤ limit may run
	stopped bool
	why     StopReason
}

func newGate(freeRun bool) *gate {
	g := &gate{limit: -1}
	g.cond = sync.NewCond(&g.mu)
	if freeRun {
		g.limit = int(^uint(0) >> 1)
	}
	return g
}

// allow blocks until round r is released or the gate stops; the
// return value says whether the round may run. Concurrency-safe: all
// policies share one gate, so one tick advances the whole round front.
func (g *gate) allow(r int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for !g.stopped && r > g.limit {
		g.cond.Wait()
	}
	return !g.stopped
}

// release grants the next round index to every policy.
func (g *gate) release() {
	g.mu.Lock()
	g.limit++
	g.cond.Broadcast()
	g.mu.Unlock()
}

// stop ends the generation at the next round boundary. The first
// reason wins; later calls cannot downgrade a signal to a reload.
func (g *gate) stop(why StopReason) {
	g.mu.Lock()
	if !g.stopped {
		g.stopped = true
		g.why = why
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// reason reports why the gate stopped (StopBudget if it never did).
func (g *gate) reason() StopReason {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.stopped {
		return StopBudget
	}
	return g.why
}

// latencies tracks per-policy round wall durations: Pace stamps the
// start after the gate admits the round, RoundHook takes the elapsed.
type latencies struct {
	mu    sync.Mutex
	start map[wan.Policy]time.Time
}

func newLatencies() *latencies {
	return &latencies{start: make(map[wan.Policy]time.Time)}
}

func (l *latencies) begin(p wan.Policy) {
	l.mu.Lock()
	l.start[p] = time.Now()
	l.mu.Unlock()
}

func (l *latencies) end(p wan.Policy) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, ok := l.start[p]
	if !ok {
		return 0
	}
	delete(l.start, p)
	return time.Since(t)
}

// roundSnap is the latest completed round, published for /demandz
// admission probes.
type roundSnap struct {
	round    int
	policy   string
	capacity float64
	shipped  float64
}

// Options configures a Daemon. The zero value of every field but
// Params means "off", and a one-shot run is nothing but those zeros:
// no Tick (free-run), no ConfigPath, no SLI layer.
type Options struct {
	// Tool names the process in lifecycle events, on stderr and on
	// /runz ("rwc-wansim", "rwc-wansimd").
	Tool string
	// Params is the initial simulation config (Resolved).
	Params Params
	// ConfigPath, when set with Poll, is watched for hot reloads.
	ConfigPath string
	// Poll is the config watch cadence (0 disables the watcher).
	Poll time.Duration
	// Tick is the round cadence: one simulation round (across every
	// policy) is released per tick. 0 = free-run, rounds advance as
	// fast as they compute.
	Tick time.Duration
	// Workers is the simulation fan-out width (0 = GOMAXPROCS).
	Workers int
	// Plane is the observability command line; Run builds it.
	Plane Plane
	// Alerts evaluates the built-in rules each round (when the plane is
	// on at all).
	Alerts bool
	// SLI is the service-level indicator layer (nil = disabled).
	SLI *sli.Layer
	// Signals triggers graceful shutdown (and ends the tail). Nil
	// means the daemon exits as soon as the budget completes.
	Signals <-chan os.Signal
	// Stdout receives the CSV stream (defaults to os.Stdout).
	Stdout io.Writer
	// Stderr receives service progress notes (defaults to discard).
	Stderr io.Writer
	// Tail keeps serving after the budget completes, until a signal.
	Tail bool
}

// RegisterFlags registers the command line rwc-wansim and rwc-wansimd
// share: the simulation flags (Params), the observability flags
// (Plane), -workers and -alerts.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	o.Params.RegisterFlags(fs)
	o.Plane.RegisterFlags(fs)
	fs.IntVar(&o.Workers, "workers", 0, "fan-out width for SNR pre-generation and policy runs (0 = GOMAXPROCS); results are identical for every value")
	fs.BoolVar(&o.Alerts, "alerts", true, "evaluate the built-in alert rules each round (requires observability to be enabled)")
}

// Main runs opts as the whole process, for both binaries: a usage error
// exits 2, a runtime failure exits 1, and SIGINT/SIGTERM drain the
// in-flight round, flush every artifact and exit 0.
func Main(opts Options) {
	fail := func(code int, err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", opts.Tool, err)
		os.Exit(code)
	}
	var err error
	if opts.Params, err = opts.Params.Resolved(); err != nil {
		fail(2, err)
	}
	if err := opts.Plane.Validate(); err != nil {
		fail(2, err)
	}
	// Two slots: one signal starts the drain, a second (ending the tail,
	// or an impatient repeat) is held instead of dropped.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	opts.Signals, opts.Stderr = sigs, os.Stderr
	if err := New(opts).Run(); err != nil {
		fail(1, err)
	}
}

// Daemon is the reconciler. Create with New, run with Run; Reload may
// be called concurrently (the config watcher does).
type Daemon struct {
	opts  Options
	start time.Time
	// bundle is the built observability plane and alerts the per-round
	// rules handed to each generation; Run sets both before any round.
	bundle *Bundle
	alerts []alert.Rule

	gateMu sync.Mutex
	g      *gate

	paramsMu sync.Mutex
	params   Params
	pending  *Params

	interrupted atomic.Bool
	latest      atomic.Pointer[roundSnap]
	done        chan struct{}
}

// New validates nothing beyond what Options carry — Params must
// already be Resolved (LoadParams and Main both do it).
func New(opts Options) *Daemon {
	if opts.Stdout == nil {
		opts.Stdout = os.Stdout
	}
	if opts.Stderr == nil {
		opts.Stderr = io.Discard
	}
	if opts.Tool == "" {
		opts.Tool = "rwc-wansimd"
	}
	d := &Daemon{opts: opts, params: opts.Params, done: make(chan struct{})}
	d.latest.Store(&roundSnap{round: -1})
	return d
}

// Admit answers a /demandz probe against the latest completed round's
// capacity/throughput snapshot. Safe to call at any time; before the
// first round completes it reports round -1 with zero headroom.
func (d *Daemon) Admit(volumes []float64) serve.AdmitResponse {
	s := d.latest.Load()
	return serve.AdmitAgainst(s.round, s.policy, s.capacity, s.shipped, volumes)
}

// Reload requests a switch to p. Identical config is a provable
// no-op: the generation gauge bumps, nothing else changes, and
// subsequent rounds are byte-identical to an un-reloaded run. A
// changed config stops the current generation at the next round
// boundary; the drained generation's rounds stay in the artifacts and
// the new one continues the sim-time axis past them.
func (d *Daemon) Reload(p Params) {
	d.paramsMu.Lock()
	same := p == d.params || (d.pending != nil && p == *d.pending)
	if !same {
		cp := p
		d.pending = &cp
	}
	d.paramsMu.Unlock()
	if same {
		d.opts.SLI.Reload(sli.ReloadNoop, "identical config")
		fmt.Fprintf(d.opts.Stderr, "%s: config reload: identical, no-op\n", d.opts.Tool)
		return
	}
	fmt.Fprintf(d.opts.Stderr, "%s: config reload: changed, draining generation\n", d.opts.Tool)
	if g := d.currentGate(); g != nil {
		g.stop(StopReload)
	}
}

// reloadFromFile loads ConfigPath; an invalid file keeps the
// last-known-good config running and only counts the failure.
func (d *Daemon) reloadFromFile() {
	p, err := LoadParams(d.opts.ConfigPath)
	if err != nil {
		d.opts.SLI.Reload(sli.ReloadFailure, err.Error())
		fmt.Fprintf(d.opts.Stderr, "%s: config reload rejected (keeping last known good): %v\n", d.opts.Tool, err)
		return
	}
	d.Reload(p)
}

func (d *Daemon) currentGate() *gate {
	d.gateMu.Lock()
	defer d.gateMu.Unlock()
	return d.g
}

func (d *Daemon) setGate(g *gate) {
	d.gateMu.Lock()
	d.g = g
	d.gateMu.Unlock()
}

// interrupt begins graceful shutdown: mark, then stop whatever
// generation is running at its next round boundary.
func (d *Daemon) interrupt() {
	d.interrupted.Store(true)
	if g := d.currentGate(); g != nil {
		g.stop(StopSignal)
	}
}

// tickCadence is the SLI heartbeat: the round tick when pacing, a
// service default otherwise.
func (d *Daemon) tickCadence() time.Duration {
	if d.opts.Tick > 0 {
		return d.opts.Tick
	}
	return 250 * time.Millisecond
}

// Run executes the reconciler loop until the budget completes or a
// signal arrives, then flushes artifacts, optionally tails, and
// drains the operations plane. It blocks for the daemon's lifetime.
func (d *Daemon) Run() error {
	d.start = time.Now()
	var err error
	d.bundle, err = d.opts.Plane.Build(artifactTool, d.opts.Params.Seed, time.Duration(d.opts.Params.Interval))
	if err != nil {
		return err
	}
	if err := d.bundle.Serve(serve.Options{Tool: d.opts.Tool, SLI: d.opts.SLI, Admit: d.Admit}, d.opts.Stderr); err != nil {
		return err
	}
	defer d.bundle.Server.Close()
	if d.opts.Alerts && d.bundle.Obs != nil {
		d.alerts = alert.DefaultWANRules()
		// The windowed SLO burn-rate rules read the history store, so
		// they ride along only when -hist-out enables one.
		if d.bundle.Hist != nil {
			d.alerts = append(d.alerts, alert.DefaultSLORules()...)
		}
	}
	d.opts.SLI.Lifecycle("daemon.start", "tool="+d.opts.Tool)

	var wg sync.WaitGroup
	if d.opts.Signals != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-d.opts.Signals:
				d.interrupt()
			case <-d.done:
			}
		}()
	}
	if d.opts.ConfigPath != "" && d.opts.Poll > 0 {
		wg.Add(1)
		go d.watchConfig(&wg)
	}

	runErr := d.reconcile(&wg)

	// Two-pass shutdown, pass 2: the in-flight round already drained
	// (reconcile only returns at a round boundary), so flush every
	// artifact in the canonical order. Flush happens on every exit
	// path, including signal-initiated ones — that is the no-truncated-
	// artifacts guarantee.
	close(d.done)
	if err := d.bundle.Flush(); err != nil && runErr == nil {
		runErr = err
	}
	d.opts.SLI.Lifecycle("daemon.flush", "artifacts written")

	if runErr == nil && d.opts.Tail && !d.interrupted.Load() && d.opts.Signals != nil {
		fmt.Fprintf(d.opts.Stderr, "%s: budget complete; tailing until SIGINT/SIGTERM\n", d.opts.Tool)
		Tail(d.opts.Signals, nil, d.tickCadence(), func() {
			d.opts.SLI.Tick(time.Since(d.start))
		})
	}
	d.bundle.Server.Drain()
	d.opts.SLI.Lifecycle("daemon.stop", "interrupted="+fmt.Sprint(d.interrupted.Load()))
	wg.Wait()
	return runErr
}

// reconcile runs config generations back to back until the budget
// completes, a signal arrives, or the simulation errors.
func (d *Daemon) reconcile(wg *sync.WaitGroup) error {
	var simOffset time.Duration
	generation := 1
	for {
		if d.interrupted.Load() {
			return nil
		}
		d.paramsMu.Lock()
		params := d.params
		d.paramsMu.Unlock()

		policies, err := params.Policies()
		if err != nil {
			return err
		}
		net, err := params.Network()
		if err != nil {
			return err
		}
		cfg, err := params.SimConfig(net)
		if err != nil {
			return err
		}
		cfg.Obs = d.bundle.Obs
		cfg.Workers = d.opts.Workers
		cfg.Perf = d.bundle.Perf
		cfg.Alerts = d.alerts
		cfg.Flight = d.bundle.Flight
		cfg.SimTimeOffset = simOffset
		if generation > 1 {
			// Generation 1 keeps the empty run label so a reload-free
			// daemon's flight log is byte-identical to the one-shot's.
			cfg.FlightRun = fmt.Sprintf("gen%d", generation)
		}

		g := newGate(d.opts.Tick <= 0)
		lat := newLatencies()
		cfg.Pace = func(p wan.Policy, r int) bool {
			if !g.allow(r) {
				return false
			}
			lat.begin(p)
			return true
		}
		cfg.RoundHook = func(p wan.Policy, m wan.RoundMetrics) {
			d.latest.Store(&roundSnap{
				round:    m.Round,
				policy:   p.String(),
				capacity: m.CapacityGbps,
				shipped:  m.ShippedGbps,
			})
			// One TE recomputation plus each applied capacity change is
			// the round's decision count — the numerator of the
			// decisions/sec SLI.
			d.opts.SLI.RoundComplete(p.String(), lat.end(p), 1+m.Changes)
		}

		sim, err := wan.NewSimulation(cfg)
		if err != nil {
			return err
		}
		if params.OverrideSNR != "" {
			f, w, r, db, err := parseOverrideSNR(params.OverrideSNR)
			if err != nil {
				return err
			}
			if err := sim.OverrideSNR(f, w, r, db); err != nil {
				return err
			}
		}
		d.setGate(g)
		if d.interrupted.Load() {
			// The signal raced generation setup; stop before any round.
			g.stop(StopSignal)
		}
		d.bundle.Server.SetReady(true)

		// The pacing/SLI heartbeat for this generation. goroutine joins
		// via wg; genDone ends it when RunPolicies returns.
		genDone := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			ticker := time.NewTicker(d.tickCadence())
			defer ticker.Stop()
			for {
				select {
				case <-genDone:
					return
				case <-ticker.C:
					if d.opts.Tick > 0 {
						g.release()
					}
					d.opts.SLI.Tick(time.Since(d.start))
				}
			}
		}()

		printRunHeader(d.opts.Stdout, params, net)
		results, err := sim.RunPolicies(policies)
		close(genDone)
		if err != nil {
			return err
		}
		printResults(d.opts.Stdout, policies, results)

		switch g.reason() {
		case StopSignal:
			d.opts.SLI.Lifecycle("daemon.drain", "generation drained on signal")
			return nil
		case StopReload:
			// Advance the sim-time axis past every round this generation
			// recorded so the next generation's history timestamps stay
			// monotonic.
			completed := 0
			for _, res := range results {
				if n := len(res.Rounds); n > completed {
					completed = n
				}
			}
			simOffset = cfg.SimTimeOffset + time.Duration(completed)*cfg.RoundInterval
			d.paramsMu.Lock()
			if d.pending != nil {
				d.params = *d.pending
				d.pending = nil
			}
			d.paramsMu.Unlock()
			d.opts.SLI.Reload(sli.ReloadSuccess,
				fmt.Sprintf("generation %d drained after %d rounds", generation, completed))
			// The flight-run label counts switchovers locally; the SLI
			// generation gauge also counts no-op reloads, so the two
			// numbers may differ by design.
			generation++
			fmt.Fprintf(d.opts.Stderr, "%s: switched to config generation %d\n", d.opts.Tool, generation)
		default:
			d.opts.SLI.Lifecycle("daemon.budget", fmt.Sprintf("round budget %d complete", params.Rounds))
			return nil
		}
	}
}

// watchConfig polls ConfigPath and funnels changes through
// reloadFromFile. Polling (not inotify) keeps it portable and
// dependency-free; the cadence is the service's Poll option.
func (d *Daemon) watchConfig(wg *sync.WaitGroup) {
	defer wg.Done()
	ticker := time.NewTicker(d.opts.Poll)
	defer ticker.Stop()
	var lastMod time.Time
	var lastSize int64
	if fi, err := os.Stat(d.opts.ConfigPath); err == nil {
		lastMod, lastSize = fi.ModTime(), fi.Size()
	}
	for {
		select {
		case <-d.done:
			return
		case <-ticker.C:
			fi, err := os.Stat(d.opts.ConfigPath)
			if err != nil {
				continue
			}
			if fi.ModTime().Equal(lastMod) && fi.Size() == lastSize {
				continue
			}
			lastMod, lastSize = fi.ModTime(), fi.Size()
			d.reloadFromFile()
		}
	}
}

// Tail keeps the process alive until a signal arrives, invoking
// onTick (if any) at the given cadence, then drains servers. This is
// the one shared tail — Run's (-tail, -linger) and rwc-experiments
// -linger — so every tool ends a served process the same way:
// readiness flips false and SSE sessions close with their undelivered
// buffers counted under cause="shutdown".
func Tail(signals <-chan os.Signal, servers []*serve.Server, cadence time.Duration, onTick func()) {
	if signals != nil {
		if onTick == nil || cadence <= 0 {
			<-signals
		} else {
			ticker := time.NewTicker(cadence)
			defer ticker.Stop()
		wait:
			for {
				select {
				case <-signals:
					break wait
				case <-ticker.C:
					onTick()
				}
			}
		}
	}
	for _, s := range servers {
		s.Drain()
	}
}
