package daemon

import (
	"flag"
	"fmt"
	"io"
	"runtime"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/hist"
	"repro/internal/obs/perf"
	"repro/internal/obs/serve"
)

// Plane is the observability command line rwc-wansim and rwc-wansimd
// share: where the run artifacts go and the live operations plane.
// Register it, Build it into a Bundle.
type Plane struct {
	// Artifacts holds the six -*-out paths.
	Artifacts
	// Serve is the operations-plane listen address ("" = not served).
	Serve string
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
	fs.StringVar(&p.HistOut, "hist-out", "", "enable the metrics-history store and write it to this file at exit (binary archive)")
	fs.StringVar(&p.PerfOut, "perf-out", "", "write the wall-clock perf artifact (phase latencies, rwc_work_* copy) to this file; never perturbs the deterministic artifacts")
	fs.StringVar(&p.Serve, "serve", "", "serve the live operations plane (/metrics, /healthz, /readyz, /runz, /traces, /queryz, ...) on this address (e.g. localhost:6060)")
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

// Build constructs what the flags ask for. The bundle exists iff an
// artifact path or -serve asks for it, so a plain run records nothing.
// tool labels the artifacts, seed identifies the run in them. The
// history store holds the run registry's series only: the flight
// recorder's per-link series are in its log, and flight.Log.History
// rebuilds them as history.
func (p *Plane) Build(tool string, seed uint64) *Bundle {
	b := &Bundle{Artifacts: p.Artifacts, addr: p.Serve, seed: seed}
	if p.Artifacts == (Artifacts{}) && p.Serve == "" {
		return b
	}
	// Simulation-clocked metrics and trace; wall time enters only
	// through the perf recorder below.
	o := obs.New()
	b.Obs = o
	if p.ManifestOut != "" {
		m := &obs.Manifest{Tool: tool, GoVersion: runtime.Version(), Seed: seed}
		if p.fs != nil {
			m.Options = make(map[string]string)
			p.fs.VisitAll(func(fl *flag.Flag) { m.Options[fl.Name] = fl.Value.String() })
		}
		b.Artifacts.Manifest = m
	}
	// The flight recorder writes its log and touches nothing else, so
	// recording cannot perturb the other artifacts.
	if p.FlightOut != "" {
		b.Flight = flight.New()
	}
	// The history store is attached before the registry records
	// anything, so every series gets a history handle at registration.
	if p.HistOut != "" {
		b.Hist = hist.New(hist.Options{Tool: tool, Seed: seed})
		o.Metrics.SetHistory(b.Hist.Root().Bind(o.Clock))
	}
	// The perf recorder is the wall-clock side channel: it never touches
	// the registry/trace/hist/flight sinks.
	if p.PerfOut != "" {
		b.Perf = perf.New(tool)
	}
	b.Artifacts.FlightMeta = flight.Meta{Tool: tool, Seed: seed}
	return b
}

// Serve starts the live operations plane on the -serve address, if one
// was given, over the bundle's subsystems; opts carries what only the
// caller knows (Tool, Admit). The server owns the run's service ledger
// (Server.SLI). Serving reads snapshots only, so artifacts are
// byte-identical with or without it.
func (b *Bundle) Serve(opts serve.Options, stderr io.Writer) error {
	if b.addr == "" {
		return nil
	}
	opts.Obs, opts.Seed, opts.Hist, opts.Perf = b.Obs, b.seed, b.Hist, b.Perf
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
