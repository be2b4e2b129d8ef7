// Command rwc-experiments regenerates every table and figure of the
// paper's evaluation and prints them as text tables.
//
// Usage:
//
//	rwc-experiments [-quick] [-seed N] [-figure name[,name...]]
//	                [-format text|csv|md] [-workers N]
//
// Figures: fig1, fig2a, fig2b, fig3a, fig3b, fig4, fig4c, fig5, fig6b,
// fig7, fig8, theorem1, throughput, availability, sensitivity,
// safeguards, all (every one listed so far, the default; it may appear
// in a list, so -figure all,fig1series is every figure), and fig1series
// (2000 long-form rows for CSV plotting; opt-in, not part of all).
//
// The harness prints figures and records nothing else. The throughput
// figure's WAN simulation is `rwc-wansim -seed 757 -rounds 120 -policy
// all` (-rounds 16 at -quick; with -seed S, -seed S^0x514): rwc-wansim
// is the one recorder of WAN runs, so run it for the simulation's
// metrics, trace, history or flight log.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
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

// run is the command: a usage error exits 2 before anything is
// printed; a failed figure exits 1.
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "rwc-experiments: %v\n", err)
		return code
	}
	fs := flag.NewFlagSet("rwc-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run the scaled-down configuration (seconds instead of minutes)")
	seed := fs.Uint64("seed", 0, "override the experiment seed (0 = default)")
	figure := fs.String("figure", "all", "comma-separated figures to regenerate (all = every figure but fig1series)")
	format := fs.String("format", "text", "output format: text, csv, or md")
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

	// "all" stands for these; fig1series (2000 long-form rows, meant
	// for CSV plotting) stays opt-in by name.
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
	for _, name := range strings.Split(*figure, ",") {
		name = strings.TrimSpace(name)
		if name == "all" {
			selected = append(selected, order...)
			continue
		}
		if _, ok := registry[name]; !ok {
			return fail(2, fmt.Errorf("unknown figure %q; known: %s, all, and fig1series (opt-in, not part of all)", name, strings.Join(order, ", ")))
		}
		selected = append(selected, name)
	}

	render, ok := map[string]func(*experiments.Table, io.Writer) error{
		"text": (*experiments.Table).Render,
		"csv":  (*experiments.Table).RenderCSV,
		"md":   (*experiments.Table).RenderMarkdown,
	}[*format]
	if !ok {
		return fail(2, fmt.Errorf("unknown format %q (text, csv, md)", *format))
	}

	if *format == "text" {
		mode := "paper-scale"
		if *quick {
			mode = "quick"
		}
		fmt.Fprintf(stdout, "Run, Walk, Crawl reproduction — %s run (%d links, %v horizon)\n\n",
			mode, opts.Dataset.Links(), opts.Dataset.Duration)
	}

	// Figures fan out over -workers and render in figure order, so
	// stdout is identical for every worker count.
	err := par.Stream(par.Opts{Workers: *workers}, len(selected),
		func(worker, i int) (tabler, error) {
			res, err := registry[selected[i]](opts)
			if err != nil {
				return nil, fmt.Errorf("%s: %v", selected[i], err)
			}
			return res, nil
		},
		func(i int, res tabler) error {
			if err := render(res.Table(), stdout); err != nil {
				return fmt.Errorf("%s: render: %v", selected[i], err)
			}
			return nil
		})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
