// Command rwc-lint runs the repository's custom static-analysis suite
// (see internal/lint): determinism and unit-hygiene analyzers the
// reproduction's correctness argument depends on.
//
// Usage:
//
//	rwc-lint [-json] [-workers N] [package patterns]
//
// With no patterns it checks ./... — the whole module, test files
// included. Packages are loaded and analyzed in import order so
// cross-package facts (mapiter taint, seriesname registrations)
// resolve; analysis fans out per package on an internal/par pool
// (-workers), and both the text and -json outputs are byte-identical
// for any workers value. It prints one line per finding and exits
// non-zero if any finding survives //nolint filtering, so `make lint`
// and CI can gate on it: `//nolint:<rule> // reason` on the line is the
// one way to accept a finding. Run it from inside the module (package
// resolution shells out to `go list`).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
	"repro/internal/par"
)

func main() {
	var (
		jsonOut = flag.Bool("json", false, "emit findings as deterministic JSON on stdout")
		workers = flag.Int("workers", par.Workers(0), "analysis workers (default GOMAXPROCS); results are identical for any value")
	)
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := lint.NewLoader()
	loaded, err := loader.LoadPatterns(".", patterns...)
	if err != nil {
		fatalf("%v", err)
	}

	diags, err := lint.RunParallel(loaded, lint.All(), *workers)
	if err != nil {
		fatalf("%v", err)
	}

	findings := render(loader, diags)
	if *jsonOut {
		writeJSON(os.Stdout, findings)
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s (%s)\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rwc-lint: "+format+"\n", args...)
	os.Exit(2)
}

// finding is one diagnostic in output form. File paths are
// slash-separated and relative to the working directory, so JSON
// output is byte-identical across runs from the same module root.
type finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func render(loader *lint.Loader, diags []lint.Diagnostic) []finding {
	cwd, _ := os.Getwd()
	out := make([]finding, 0, len(diags))
	for _, d := range diags {
		pos := loader.Fset().Position(d.Pos)
		file := pos.Filename
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = rel
			}
		}
		out = append(out, finding{
			Analyzer: d.Analyzer.Name,
			File:     filepath.ToSlash(file),
			Line:     pos.Line,
			Col:      pos.Column,
			Message:  d.Message,
		})
	}
	return out
}

// jsonReport is the machine-readable output shape. Field order is
// fixed by the struct, findings are pre-sorted, and no maps are
// involved, so the bytes are deterministic.
type jsonReport struct {
	Version  int       `json:"version"`
	Findings []finding `json:"findings"`
}

func writeJSON(w io.Writer, findings []finding) {
	rep := jsonReport{Version: 1, Findings: findings}
	if rep.Findings == nil {
		rep.Findings = []finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(rep); err != nil {
		fatalf("encoding JSON: %v", err)
	}
}
