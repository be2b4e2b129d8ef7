// Command rwc-wansimd runs the WAN simulation as a long-running
// service: a reconciler daemon that advances TE rounds on a
// configurable cadence, hot-reloads its config file across
// generations, exposes live service SLIs (rwc_sli_*) next to the
// simulation's own metrics, and shuts down gracefully in two passes —
// stop intake at a round boundary, drain the in-flight round, flush
// every artifact.
//
// Usage:
//
//	rwc-wansimd [-config daemon.json] [-tick 0s] [-poll 2s]
//	            [-serve addr] [-tail] [simulation flags as rwc-wansim]
//	            [artifact flags as rwc-wansim]
//
// Configuration comes from -config (a JSON Params file, watched for
// changes every -poll; a key the file omits keeps its flag default) or,
// when -config is absent, from the same simulation flags rwc-wansim
// takes — registered from the same daemon.Params, so they cannot
// drift. A reload with identical content is a provable no-op: the
// rwc_sli_config_generation gauge bumps and nothing else changes. A
// changed config drains the running generation at a round boundary and
// starts the next one with the sim-time axis continued past the
// drained rounds. An invalid config never touches the running
// simulation: the daemon keeps the last known good parameters and
// counts the failure in rwc_sli_config_reloads_total{result="failure"}.
//
// -tick paces rounds (one simulation round across every policy per
// tick); 0 free-runs the budget, which is all the one-shot tool is:
// rwc-wansim runs this same lifecycle with no tick or config. With a
// fixed budget and no reload the daemon's stdout and every artifact
// are byte-identical to the equivalent rwc-wansim run. Service
// accounting lives in the SLI layer, which the operations plane owns:
// every -serve run of either tool has one, rendered live (on /metrics
// under the rwc_sli_ prefix, on /sliz, /queryz, /seriesz) and never
// into run artifacts.
//
// On SIGINT/SIGTERM the daemon stops intake, lets the in-flight round
// complete, flushes metrics/trace/manifest/hist/flight/perf, drains
// the operations plane (SSE sessions end with their undelivered
// buffers counted under cause="shutdown"), and exits 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/daemon"
)

func main() {
	opts := daemon.Options{Tool: "rwc-wansimd", Params: daemon.DefaultParams()}
	opts.RegisterFlags(flag.CommandLine)
	flag.StringVar(&opts.ConfigPath, "config", "", "JSON config file defining the simulation (daemon.Params); watched for hot reloads, and the simulation flags are ignored")
	flag.DurationVar(&opts.Poll, "poll", 2*time.Second, "config file watch cadence (requires -config)")
	flag.DurationVar(&opts.Tick, "tick", 0, "round cadence: one simulation round per tick across every policy (0 = free-run the budget)")
	flag.BoolVar(&opts.Tail, "tail", true, "keep serving after the round budget completes, until SIGINT/SIGTERM")
	flag.Parse()

	if opts.ConfigPath != "" {
		p, err := daemon.LoadParams(opts.ConfigPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rwc-wansimd: %v\n", err)
			os.Exit(2)
		}
		opts.Params = p
	}
	daemon.Main(opts)
}
