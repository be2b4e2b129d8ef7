package daemon

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/hist"
	"repro/internal/obs/olog"
	"repro/internal/obs/perf"
	"repro/internal/obs/serve"
)

// Plane is the observability command line rwc-wansim, rwc-wansimd and
// rwc-experiments share: where the run artifacts go, the budgets of the
// subsystems behind them, the live operations plane and stderr logging.
// Register it, Validate it, Build it into a Bundle.
type Plane struct {
	// Artifacts holds the six -*-out paths.
	Artifacts
	FlightLinks    int
	HistRetain     int
	HistBudget     int
	PerfProfileDir string
	// Serve is the operations-plane listen address ("" = not served).
	Serve string
	// Log is the stderr logging level ("" = off).
	Log string
	// fs is the flag set the plane was registered on; the manifest
	// records every flag of it.
	fs *flag.FlagSet
}

// RegisterFlags registers the observability flags on fs, bound to p.
func (p *Plane) RegisterFlags(fs *flag.FlagSet) {
	p.fs = fs
	fs.StringVar(&p.MetricsOut, "metrics-out", "", "write final metrics in Prometheus text format to this file")
	fs.StringVar(&p.TraceOut, "trace-out", "", "write the decision trace as JSONL to this file")
	fs.StringVar(&p.ManifestOut, "manifest-out", "", "write the run manifest as JSON to this file")
	fs.StringVar(&p.FlightOut, "flight-out", "", "record the flight log (per-link decision audit) to this file")
	fs.IntVar(&p.FlightLinks, "flight-links", flight.DefaultMaxLinks, "cardinality budget: links granted live labeled series (the log always carries every link)")
	fs.StringVar(&p.HistOut, "hist-out", "", "enable the metrics-history store and write it to this file at exit (binary; .jsonl suffix selects JSONL)")
	fs.IntVar(&p.HistRetain, "hist-retain", hist.DefaultRetain, "raw samples retained per history series before downsampling")
	fs.IntVar(&p.HistBudget, "hist-budget", hist.DefaultMaxSeries, "cardinality budget: history series admitted per fan-out shard (negative = unlimited)")
	fs.StringVar(&p.PerfOut, "perf-out", "", "write the wall-clock perf artifact (phase latencies, memory deltas, rwc_work_* copy) to this file; never perturbs the deterministic artifacts")
	fs.StringVar(&p.PerfProfileDir, "perf-profile-dir", "", "also write run-scoped cpu.pprof and heap.pprof under this directory (requires -perf-out)")
	fs.StringVar(&p.Serve, "serve", "", "serve the live operations plane (/metrics, /healthz, /readyz, /runz, /traces, /queryz, /debug/pprof, ...) on this address (e.g. localhost:6060)")
	fs.StringVar(&p.Log, "log", "", "structured stderr logging level: debug, info, warn, error (empty = off)")
}

// Validate reports a flag combination Build would not accept — a usage
// error, where a Build failure is a runtime one.
func (p *Plane) Validate() error {
	if _, err := olog.ParseLevel(p.Log); err != nil {
		return err
	}
	if p.PerfProfileDir != "" && p.PerfOut == "" {
		return fmt.Errorf("-perf-profile-dir requires -perf-out")
	}
	return nil
}

// Bundle is a built Plane: the observability subsystems of one process.
// Every field is nil when nothing asked for it, and every use of a nil
// one is a no-op.
type Bundle struct {
	Artifacts Artifacts
	Obs       *obs.Obs
	Flight    *flight.Recorder
	Hist      *hist.Store
	Perf      *perf.Recorder
	// Server is set by Serve.
	Server *serve.Server

	addr string
	seed uint64
}

// Build constructs what the flags ask for. The bundle exists iff
// something consumes it — an artifact path, -serve or -log — so a plain
// run records nothing. tool labels the artifacts, seed identifies the
// run in them. A positive interval (the tools that run one simulation)
// also feeds the flight recorder's per-link gauges into the history
// store, one sample per round; rwc-experiments passes 0.
func (p *Plane) Build(tool string, seed uint64, interval time.Duration) (*Bundle, error) {
	b := &Bundle{Artifacts: p.Artifacts, addr: p.Serve, seed: seed}
	if p.Artifacts == (Artifacts{}) && p.Serve == "" && p.Log == "" {
		return b, nil
	}
	// Simulation-clocked metrics, trace and manifest; wall time enters
	// only through the perf recorder below.
	o := obs.New(tool)
	o.Manifest.SetSeed(seed)
	if p.fs != nil {
		p.fs.VisitAll(func(fl *flag.Flag) {
			o.Manifest.SetOption(fl.Name, fl.Value.String())
		})
	}
	if p.Log != "" {
		level, err := olog.ParseLevel(p.Log)
		if err != nil {
			return nil, err
		}
		o.Log = olog.New(os.Stderr, level).WithClock(o.Clock)
	}
	b.Obs = o
	// The flight recorder owns its registry and is never merged into the
	// app bundle, so recording cannot perturb the other artifacts.
	if p.FlightOut != "" {
		b.Flight = flight.New(flight.Options{MaxLinks: p.FlightLinks})
	}
	// The history store is attached before the registry records
	// anything, so every series gets a history handle at registration.
	// Registry captures go through the root shard; the flight recorder
	// (whose own MaxLinks budget governs admission) gets a child shard.
	if p.HistOut != "" {
		b.Hist = hist.New(hist.Options{Retain: p.HistRetain, MaxSeries: p.HistBudget, Tool: tool, Seed: seed})
		o.Metrics.SetHistory(b.Hist.Root().Bind(o.Clock))
		if interval > 0 {
			b.Flight.SetHistory(b.Hist.Root().NewChild(), interval)
		}
	}
	// The perf recorder is the wall-clock side channel: it never touches
	// the registry/trace/hist/flight sinks.
	if p.PerfOut != "" {
		b.Perf = perf.New(tool)
		if p.PerfProfileDir != "" {
			if err := b.Perf.StartProfiles(p.PerfProfileDir); err != nil {
				return nil, err
			}
		}
	}
	b.Artifacts.FlightMeta = flight.Meta{Tool: tool, Seed: int64(seed), Interval: interval}
	return b, nil
}

// Serve starts the live operations plane on the -serve address, if one
// was given, over the bundle's subsystems; opts carries what only the
// caller knows (Tool, SLI, Admit). Serving reads snapshots only, so
// artifacts are byte-identical with or without it.
func (b *Bundle) Serve(opts serve.Options, stderr io.Writer) error {
	if b.addr == "" {
		return nil
	}
	opts.Obs, opts.Seed, opts.Flight, opts.Hist, opts.Perf = b.Obs, b.seed, b.Flight, b.Hist, b.Perf
	srv, err := serve.Start(b.addr, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "%s: serving operations plane on http://%s\n", opts.Tool, srv.Addr())
	b.Server = srv
	return nil
}

// Flush writes every configured artifact (see Artifacts.Flush).
func (b *Bundle) Flush() error {
	return b.Artifacts.Flush(b.Obs, b.Hist, b.Flight, b.Perf)
}
