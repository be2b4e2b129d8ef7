// Command rwc-wansim runs the WAN throughput/availability simulation:
// a backbone topology under SNR evolution, operated statically or
// dynamically (via the paper's graph abstraction), with per-round
// metrics printed as CSV-like rows.
//
// Usage:
//
//	rwc-wansim [-topology abilene|us|random|continental:N] [-rounds N]
//	           [-policy p] [-te alg] [-wavelengths N] [-seed N] [-hitless]
//	           [-lengthaware] [-workers N] [-metrics-out m.prom] [-trace-out t.jsonl]
//	           [-manifest-out run.json] [-flight-out run.flight]
//	           [-hist-out run.hist] [-perf-out perf.json]
//	           [-override-snr f,w,r,db] [-serve addr] [-linger]
//
// Rounds are six simulated hours apart, and the offered load is 1.2× the
// static-100G capacity (the 4×nodes heaviest gravity demands on
// continental:N): constants, printed in the run header.
//
// rwc-wansim is the run lifecycle of internal/daemon with no tick and
// no config file: rwc-wansimd executes the same loop as a paced,
// reloadable service, and both register their simulation and
// observability flags from that package, so the same flags mean the
// same run — byte for byte — in either. SIGINT/SIGTERM mid-run stops at
// the next round boundary, prints the rounds that ran, flushes every
// artifact and exits 0.
//
// The three -*-out flags enable the observability layer: -metrics-out
// writes the final metric registry in Prometheus text format,
// -trace-out the decision trace as JSONL (timestamps are simulation
// time, so same-seed runs are byte-identical), and -manifest-out a run
// manifest with the tool, Go version, seed and every flag value (no
// durations: same-flag runs are byte-identical here too).
//
// -flight-out records the flight log: one frame per (policy, round)
// with per-link SNR, feasible capacity, fake-edge offer, solver
// attribution, and the decision gate's verdict, a run table with the
// run's ladder, verdict names and round axis (origin and 6 h
// interval), and a trailer holding the metrics/trace artifacts'
// bytes, so `rwc-replay replay` can write or verify them from the log
// alone. Recording is pure reads — a run
// with -flight-out produces byte-identical metrics/trace/history
// files to the same run without it. `rwc-replay hist` rebuilds the
// per-link series of the first 256 links (the log itself always
// carries every link); nothing of the log is served live.
// -override-snr pins one (fiber,wavelength,round) SNR cell to a finite
// dB value before the run — fault injection that `rwc-diff a.flight
// b.flight` then bisects to the injected round and link.
//
// -hist-out enables the metrics-history store: every registry
// observation is kept as a sim-time-stamped series (per-link series
// are in the -flight-out log only; `rwc-replay hist` rebuilds them as
// history), served live on /queryz and /seriesz, and written at exit
// as a canonical binary archive, whatever the path's extension. The
// store is write-only for the run: the burn-rate rule
// capacity_below_slo keeps its own windows and runs with or without
// it. Same-seed runs produce byte-identical history at any -workers,
// and a -hist-out run leaves all pre-existing artifacts byte-identical
// to a plain run.
//
// -perf-out writes the wall-clock perf artifact (internal/obs/perf):
// per-phase latency histograms (SNR pre-generation once; one phase per
// policy, one sample per round), runtime memory/GC deltas, and a copy
// of the deterministic rwc_work_* counters. Wall capture is a
// segregated side channel — a run with -perf-out produces
// byte-identical stdout, metrics, trace, manifest, hist, and flight
// artifacts to the same run without it. The live snapshot is served at
// /perfz when -serve is up. -te selects the TE algorithm (greedy, shortest-path,
// kpath, maxconcurrent) so work-counter comparisons across allocators
// are one flag apart.
//
// The live operations plane rides the same bundle: -serve exposes
// /metrics, /healthz, /readyz, /runz, /sliz and the SSE /traces tail
// on the given address (e.g. "localhost:6060") without
// perturbing the run — artifacts stay byte-identical with or without
// it. A served run gets the service ledger (rwc_sli_* on /metrics,
// /sliz) exactly as rwc-wansimd does. The built-in SNR-dip / flap-rate
// / solver-work rules run each round whenever observability is
// enabled. -linger keeps
// the process (and its server) alive after the run finishes until
// interrupted, so scrapers can collect the final state.
package main

import (
	"os"

	"repro/internal/daemon"
)

func main() { os.Exit(daemon.Main("rwc-wansim", os.Args[1:], os.Stdout, os.Stderr)) }
