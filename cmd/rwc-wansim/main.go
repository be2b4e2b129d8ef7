// Command rwc-wansim runs the WAN throughput/availability simulation:
// a backbone topology under SNR evolution, operated statically or
// dynamically (via the paper's graph abstraction), with per-round
// metrics printed as CSV-like rows.
//
// Usage:
//
//	rwc-wansim [-topology abilene|us|random] [-rounds N] [-policy p]
//	           [-te alg] [-demand f] [-wavelengths N] [-seed N] [-hitless]
//	           [-workers N] [-metrics-out m.prom] [-trace-out t.jsonl]
//	           [-manifest-out run.json] [-flight-out run.flight]
//	           [-flight-links N] [-hist-out run.hist] [-hist-retain N]
//	           [-hist-budget N] [-perf-out perf.json] [-perf-profile-dir d]
//	           [-override-snr f,w,r,db] [-serve addr]
//	           [-log level] [-alerts] [-linger]
//
// rwc-wansim is the run lifecycle of internal/daemon with no tick, no
// config file and no SLI layer: rwc-wansimd executes the same loop as a
// paced, reloadable service, and both register their simulation and
// observability flags from that package, so the same flags mean the
// same run — byte for byte — in either. SIGINT/SIGTERM mid-run stops at
// the next round boundary, prints the rounds that ran, flushes every
// artifact and exits 0.
//
// The three -*-out flags enable the observability layer: -metrics-out
// writes the final metric registry in Prometheus text format,
// -trace-out the decision trace as JSONL (timestamps are simulation
// time, so same-seed runs are byte-identical), and -manifest-out a run
// manifest with the seed, options, alert summaries, and metric totals
// (no durations: same-flag runs are byte-identical here too).
//
// -flight-out records the flight log: one frame per (policy, round)
// with per-link SNR, modulation tier, fake-edge offer, solver
// attribution, and the decision verdict, plus a trailer embedding the
// metrics/trace artifacts so `rwc-replay replay` can regenerate them
// byte-identically from the log alone. Recording is pure reads — a run
// with -flight-out produces byte-identical metrics/trace/manifest
// files to the same run without it. -flight-links caps how many links
// get live labeled series (the log itself always carries every link).
// -override-snr pins one (fiber,wavelength,round) SNR cell before the
// run — fault injection for `rwc-replay bisect` smoke tests.
//
// -hist-out enables the metrics-history store: every registry
// observation (and, with -flight-out, every per-link flight gauge) is
// kept as a sim-time-stamped series, served live on /queryz and
// /seriesz, evaluated by the windowed SLO burn-rate rules
// (capacity_below_slo), and written at exit as a canonical binary
// artifact (or JSONL when the path ends in .jsonl). Same-seed runs
// produce byte-identical history at any -workers, and a -hist-out run
// leaves all pre-existing artifacts byte-identical to a plain run.
// -hist-retain caps raw samples kept per series before downsampling;
// -hist-budget caps series admitted per fan-out shard, like
// -flight-links.
//
// -perf-out writes the wall-clock perf artifact (internal/obs/perf):
// per-phase latency histograms (SNR pre-generation once; one phase per
// policy, one sample per round), runtime memory/GC deltas, and a copy
// of the deterministic rwc_work_* counters. Wall capture is a
// segregated side channel — a run with -perf-out produces
// byte-identical stdout, metrics, trace, manifest, hist, and flight
// artifacts to the same run without it. The live snapshot is served at
// /perfz when -serve is up. -perf-profile-dir
// additionally writes run-scoped cpu.pprof/heap.pprof under the given
// directory. -te selects the TE algorithm (greedy, shortest-path,
// kpath, maxconcurrent) so work-counter comparisons across allocators
// are one flag apart.
//
// The live operations plane rides the same bundle: -serve exposes
// /metrics, /healthz, /readyz, /runz, the SSE /traces tail, and
// /debug/pprof on the given address (e.g. "localhost:6060") without
// perturbing the run — artifacts stay byte-identical with or without
// it. -log level enables structured key=value progress
// logging to stderr (debug, info, warn, error). -alerts (on by
// default) evaluates the built-in SNR-dip / flap-rate / solver-work
// rules each round whenever observability is enabled. -linger keeps
// the process (and its server) alive after the run finishes until
// interrupted, so scrapers can collect the final state.
package main

import (
	"flag"

	"repro/internal/daemon"
)

func main() {
	opts := daemon.Options{Tool: "rwc-wansim", Params: daemon.DefaultParams()}
	opts.RegisterFlags(flag.CommandLine)
	flag.BoolVar(&opts.Tail, "linger", false, "keep serving after the run finishes, until SIGINT/SIGTERM")
	flag.Parse()
	// There is nothing to keep serving without -serve.
	opts.Tail = opts.Tail && opts.Plane.Serve != ""
	daemon.Main(opts)
}
