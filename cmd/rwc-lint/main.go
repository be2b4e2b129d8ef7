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
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
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
	pkgs, err := goList(patterns)
	if err != nil {
		fatalf("%v", err)
	}

	loader := lint.NewLoader()
	var loaded []*lint.Package
	for _, u := range loadUnits(pkgs) {
		pkg, err := loader.LoadFiles(u.path, u.files)
		if err != nil {
			fatalf("%v", err)
		}
		loaded = append(loaded, pkg)
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

// listedPackage is the subset of `go list -json` output the driver
// needs to reconstruct each package's file groups and import edges.
type listedPackage struct {
	Dir          string
	ImportPath   string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
}

// loadUnit is one type-check group: the package proper (with
// in-package tests) or an external _test package.
type loadUnit struct {
	path    string
	files   []string
	imports []string
}

// loadUnits flattens the listed packages into type-check groups — the
// package proper with its in-package tests, and the external _test
// package — ordered so that every module-local import of a group
// precedes it. That order lets the Loader's package cache resolve module imports
// to the exact packages being analyzed (object identity for facts)
// and gives the analysis scheduler its dependency levels. Cgo files
// are excluded: go/types cannot check import "C" without a full cgo
// preprocessing pass, and the module is cgo-free by policy.
func loadUnits(pkgs []*listedPackage) []loadUnit {
	// Deterministic input order regardless of go list's.
	sort.SliceStable(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	var units []loadUnit
	for _, p := range pkgs {
		abs := func(names []string) []string {
			out := make([]string, len(names))
			for i, n := range names {
				out[i] = filepath.Join(p.Dir, n)
			}
			return out
		}
		main := append(abs(p.GoFiles), abs(p.TestGoFiles)...)
		imports := append(append([]string{}, p.Imports...), p.TestImports...)
		if len(main) > 0 {
			units = append(units, loadUnit{path: p.ImportPath, files: main, imports: imports})
		}
		if len(p.XTestGoFiles) > 0 {
			units = append(units, loadUnit{
				path:  p.ImportPath,
				files: abs(p.XTestGoFiles),
				// The external test package always depends on the
				// package proper (same import path).
				imports: append([]string{p.ImportPath}, p.XTestImports...),
			})
		}
	}
	ordered, err := topoUnits(units)
	if err != nil {
		fatalf("%v", err)
	}
	return ordered
}

// topoUnits topologically sorts load units by module-local imports,
// keeping input order among ties.
func topoUnits(units []loadUnit) ([]loadUnit, error) {
	first := map[string]int{}
	for i, u := range units {
		if _, ok := first[u.path]; !ok {
			first[u.path] = i
		}
	}
	indeg := make([]int, len(units))
	dependents := make([][]int, len(units))
	for i, u := range units {
		seen := map[int]bool{}
		for _, imp := range u.imports {
			if j, ok := first[imp]; ok && j != i && !seen[j] {
				seen[j] = true
				dependents[j] = append(dependents[j], i)
				indeg[i]++
			}
		}
		// An external _test unit also waits for its package proper.
		if j, ok := first[u.path]; ok && j != i && !seen[j] {
			dependents[j] = append(dependents[j], i)
			indeg[i]++
		}
	}
	var order []int
	scheduled := make([]bool, len(units))
	for len(order) < len(units) {
		progress := false
		for i := range units {
			if !scheduled[i] && indeg[i] == 0 {
				scheduled[i] = true
				order = append(order, i)
				for _, j := range dependents[i] {
					indeg[j]--
				}
				progress = true
			}
		}
		if !progress {
			return nil, errors.New("import cycle among listed packages")
		}
	}
	out := make([]loadUnit, len(order))
	for i, idx := range order {
		out[i] = units[idx]
	}
	return out, nil
}

func goList(patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s",
			strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listedPackage
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}
