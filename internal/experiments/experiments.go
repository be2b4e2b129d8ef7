// Package experiments regenerates every table and figure of the
// paper's evaluation. Each FigureN function returns a typed result with
// the same series the paper plots, plus a Table rendering for the
// command-line harness. DESIGN.md maps figures to the modules used
// here; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// Options scales the experiments.
type Options struct {
	// Dataset is the fleet configuration behind the §2 figures.
	Dataset dataset.Config
	// Seed drives everything not covered by Dataset.Seed.
	Seed uint64
	// BVTChanges is the number of modulation changes in the Figure 6b
	// testbed run (the paper uses 200).
	BVTChanges int
	// ConstellationSymbols is the per-format symbol count for Figure 5.
	ConstellationSymbols int
	// SimRounds is the number of TE rounds in the throughput
	// simulation.
	SimRounds int
	// SimTopology selects the throughput simulation's backbone as a
	// wan.ParseTopology spec (e.g. "us", "continental:200"). Empty
	// keeps the default Abilene backbone the figures were calibrated
	// on.
	SimTopology string
	// SimWavelengths is the wavelengths-per-fiber for SimTopology runs
	// (0 means 2, Abilene's default; negative is an error).
	SimWavelengths int
	// SimMaxDemands caps the gravity matrix at the N largest demands
	// for SimTopology runs (0 = all pairs).
	SimMaxDemands int
	// Trials is the number of random instances for the Theorem 1
	// property check.
	Trials int
	// Obs receives per-figure spans and counters; nil (the default)
	// disables observability at no cost.
	// Obs is threaded through to the simulations the figures run.
	Obs *obs.Obs
	// Flight receives per-round decision frames from the simulations
	// the figures run (currently the throughput-gains simulation,
	// labeled by run name); nil disables recording.
	Flight *flight.Recorder
	// Workers bounds the fan-out inside each figure (fleet generation
	// and analysis, per-policy simulation runs); <= 0 means
	// runtime.GOMAXPROCS(0). Every value produces identical figures,
	// metrics, and traces (see internal/par).
	Workers int
}

// datasetConfig is o.Dataset with the fan-out plumbing (workers and
// observability) threaded through.
func (o Options) datasetConfig() dataset.Config {
	c := o.Dataset
	c.Workers = o.Workers
	c.Obs = o.Obs
	return c
}

// span opens a per-figure trace span and counts the computation; the
// returned func closes the span. Every FigureN function defers it, so a
// run's trace shows exactly which figures ran (how long each took is
// the caller's perf phase, see cmd/rwc-experiments).
func (o Options) span(figure string) func() {
	o.Obs.Counter("experiments_figures_total", //nolint:seriesname // cold: once per figure
		"Figure computations executed, by figure.",
		obs.L("figure", figure)).Inc()
	endSpan := o.Obs.Span("experiments.figure", obs.A("figure", figure))
	o.Obs.Logger().Info("figure start", "figure", figure)
	return func() {
		endSpan()
		o.Obs.Logger().Info("figure done", "figure", figure)
	}
}

// DefaultOptions is the paper-scale configuration (minutes of compute:
// 2000 links × 2.5 years).
func DefaultOptions() Options {
	return Options{
		Dataset:              dataset.DefaultConfig(),
		Seed:                 2017,
		BVTChanges:           200,
		ConstellationSymbols: 4096,
		SimRounds:            120,
		Trials:               200,
	}
}

// QuickOptions is a scaled-down configuration for tests and benchmarks
// (seconds of compute) that preserves every experiment's shape.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Dataset = dataset.SmallConfig()
	o.BVTChanges = 60
	o.ConstellationSymbols = 1024
	o.SimRounds = 16
	o.Trials = 25
	return o
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render writes an aligned text table.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) && len(cell) < widths[i] {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	var total int
	for _, w := range widths {
		total += w + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// f formats a float compactly.
func f(v float64) string { return fmt.Sprintf("%.3g", v) }

// f2 formats with 2 decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// dur formats a duration compactly.
func dur(d time.Duration) string { return d.Round(time.Millisecond).String() }
