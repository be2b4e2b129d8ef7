// Command rwc-experiments regenerates every table and figure of the
// paper's evaluation and prints them as text tables.
//
// Usage:
//
//	rwc-experiments [-quick] [-seed N] [-figure name] [-format text|csv|md]
//	                [-workers N]
//	                [-metrics-out m.prom] [-trace-out t.jsonl]
//	                [-manifest-out run.json] [-hist-out run.hist]
//	                [-flight-out run.flight]
//	                [-perf-out perf.json] [-perf-profile-dir d]
//	                [-serve addr]
//
// Figures: fig1, fig2a, fig2b, fig3a, fig3b, fig4, fig4c, fig5, fig6b,
// fig7, fig8, theorem1, throughput, availability, sensitivity,
// safeguards, all (default: every one listed so far), and fig1series
// (2000 long-form rows for CSV plotting; opt-in, not part of all).
//
// The -*-out flags enable the observability layer: per-figure spans and
// counters (plus everything the underlying simulations record) land in
// the metrics/trace files, and the manifest records the tool, Go
// version, seed and every flag value. -serve exposes the live operations
// plane — /metrics, /healthz, /readyz, /runz, /sliz, the SSE /traces
// tail — while the figures run, without perturbing them.
//
// -flight-out records the throughput figure's simulation as one named
// run (throughput-gains) whose run table carries its 6 h round axis.
// A -hist-out archive holds registry series only, as rwc-wansim's
// does: `rwc-replay hist` rebuilds the per-link series from the log,
// on that axis.
//
// -perf-out writes the wall-clock perf artifact (internal/obs/perf):
// one latency phase per figure, runtime memory/GC deltas, and a copy
// of the deterministic rwc_work_* counters; /perfz serves the live
// snapshot. Wall capture is a segregated side channel — enabling it
// leaves stdout and every other artifact byte-identical.
// -perf-profile-dir additionally writes run-scoped cpu.pprof and
// heap.pprof under the given directory.
//
// The observability flags, the bundle behind them and the artifact
// flush are internal/daemon's, shared with rwc-wansim and rwc-wansimd.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/daemon"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/serve"
	"repro/internal/par"
)

// tabler is any experiment result.
type tabler interface{ Table() *experiments.Table }

// experimentFunc runs one experiment.
type experimentFunc func(experiments.Options) (tabler, error)

// wrap adapts a concrete experiment to experimentFunc.
func wrap[T tabler](f func(experiments.Options) (T, error)) experimentFunc {
	return func(o experiments.Options) (tabler, error) { return f(o) }
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: a usage error exits 2, before any artifact,
// profile or server exists; a failed figure or flush exits 1.
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "rwc-experiments: %v\n", err)
		return code
	}
	fs := flag.NewFlagSet("rwc-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run the scaled-down configuration (seconds instead of minutes)")
	seed := fs.Uint64("seed", 0, "override the experiment seed (0 = default)")
	figure := fs.String("figure", "all", "which figure to regenerate")
	format := fs.String("format", "text", "output format: text, csv, or md")
	var plane daemon.Plane
	plane.RegisterFlags(fs)
	workers := fs.Int("workers", 0, "fan-out width for figures and the fleet/simulation work inside them (0 = GOMAXPROCS); results are identical for every value")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	opts := experiments.DefaultOptions()
	if *quick {
		opts = experiments.QuickOptions()
	}
	if *seed != 0 {
		opts.Seed = *seed
		opts.Dataset.Seed = *seed
	}
	opts.Workers = *workers

	// "all" runs these; fig1series (2000 long-form rows, meant for CSV
	// plotting) stays opt-in by name.
	order := []string{
		"fig1", "fig2a", "fig2b", "fig3a", "fig3b", "fig4", "fig4c",
		"fig5", "fig6b", "fig7", "fig8", "theorem1", "throughput", "availability",
		"sensitivity", "safeguards",
	}
	registry := map[string]experimentFunc{
		"fig1":         wrap(experiments.Figure1),
		"fig1series":   wrap(experiments.Figure1Series),
		"fig2a":        wrap(experiments.Figure2a),
		"fig2b":        wrap(experiments.Figure2b),
		"fig3a":        wrap(experiments.Figure3a),
		"fig3b":        wrap(experiments.Figure3b),
		"fig4":         wrap(experiments.Figure4),
		"fig4c":        wrap(experiments.Figure4c),
		"fig5":         wrap(experiments.Figure5),
		"fig6b":        wrap(experiments.Figure6b),
		"fig7":         wrap(experiments.Figure7),
		"fig8":         wrap(experiments.Figure8),
		"theorem1":     wrap(experiments.Theorem1),
		"throughput":   wrap(experiments.ThroughputGains),
		"availability": wrap(experiments.AvailabilityGains),
		"sensitivity":  wrap(experiments.ThresholdSensitivity),
		"safeguards":   wrap(experiments.ControllerAblation),
	}

	var selected []string
	if *figure == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*figure, ",") {
			name = strings.TrimSpace(name)
			if _, ok := registry[name]; !ok {
				return fail(2, fmt.Errorf("unknown figure %q; known: %s, all, and fig1series (opt-in, not part of all)", name, strings.Join(order, ", ")))
			}
			selected = append(selected, name)
		}
	}

	render, ok := map[string]func(*experiments.Table, io.Writer) error{
		"text": (*experiments.Table).Render,
		"csv":  (*experiments.Table).RenderCSV,
		"md":   (*experiments.Table).RenderMarkdown,
	}[*format]
	if !ok {
		return fail(2, fmt.Errorf("unknown format %q (text, csv, md)", *format))
	}
	if err := plane.Validate(); err != nil {
		return fail(2, err)
	}

	bundle, err := plane.Build("rwc-experiments", opts.Seed)
	if err == nil {
		err = bundle.Serve(serve.Options{Tool: "rwc-experiments"}, stderr)
	}
	if err != nil {
		return fail(1, err)
	}
	defer bundle.Server.Close()
	bundle.Server.SetReady(true)
	o, perfRec := bundle.Obs, bundle.Perf
	opts.Obs, opts.Flight = bundle.Obs, bundle.Flight

	if *format == "text" {
		mode := "paper-scale"
		if *quick {
			mode = "quick"
		}
		fmt.Fprintf(stdout, "Run, Walk, Crawl reproduction — %s run (%d links, %v horizon)\n\n",
			mode, opts.Dataset.Links(), opts.Dataset.Duration)
	}

	// Figures fan out over -workers. Each figure computes against a
	// private obs child (created up front, so the fan-out is
	// deterministic); children are merged and tables rendered in figure
	// order, keeping stdout, metrics, and traces identical for every
	// worker count. One consequence vs. the old serial loop: every
	// figure's trace now starts at sim time 0 instead of inheriting the
	// leftover clock of the preceding figure.
	children := make([]*obs.Obs, len(selected))
	for i := range children {
		children[i] = o.Child()
	}
	err = par.Stream(
		par.Opts{Workers: *workers, Name: "experiments/figures", Obs: o},
		len(selected),
		func(worker, i int) (tabler, error) {
			fopts := opts
			fopts.Obs = children[i]
			// One perf phase per figure; Phase on a nil recorder is a
			// no-op, so the plain path pays nothing.
			endPerf := perfRec.Phase("experiments.figure/" + selected[i])
			res, err := registry[selected[i]](fopts)
			endPerf()
			if err != nil {
				return nil, fmt.Errorf("%s: %v", selected[i], err)
			}
			return res, nil
		},
		func(i int, res tabler) error {
			o.Merge(children[i])
			if err := render(res.Table(), stdout); err != nil {
				return fmt.Errorf("%s: render: %v", selected[i], err)
			}
			return nil
		})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := bundle.Flush(); err != nil {
		return fail(1, err)
	}
	return 0
}
