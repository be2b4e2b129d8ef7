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

	"repro/internal/dataset"
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
	// Trials is the number of random instances for the Theorem 1
	// property check.
	Trials int
	// Workers bounds the fan-out inside each figure (fleet generation
	// and analysis, per-policy simulation runs); <= 0 means
	// runtime.GOMAXPROCS(0). Every value produces identical figures
	// (see internal/par).
	Workers int
}

// datasetConfig is o.Dataset with the fan-out width threaded through.
func (o Options) datasetConfig() dataset.Config {
	c := o.Dataset
	c.Workers = o.Workers
	return c
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
