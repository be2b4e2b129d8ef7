package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// LoadPatterns lists the packages that match patterns in the module
// rooted at dir (`go list`, so build constraints apply) and
// type-checks each one, test files included, in import order: the
// package proper with its in-package tests, then its external _test
// package. A module the Loader already loaded resolves to the same
// *types.Package here, so a second module that imports the first
// (one with a replace directive onto it) sees the same objects.
func (l *Loader) LoadPatterns(dir string, patterns ...string) ([]*Package, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	units, err := loadUnits(pkgs)
	if err != nil {
		return nil, err
	}
	loaded := make([]*Package, 0, len(units))
	for _, u := range units {
		pkg, err := l.LoadFiles(u.path, u.files)
		if err != nil {
			return nil, err
		}
		loaded = append(loaded, pkg)
	}
	return loaded, nil
}

// listedPackage is the subset of `go list -json` output the loader
// needs to reconstruct each package's file groups and import edges.
type listedPackage struct {
	Dir          string
	ImportPath   string
	GoFiles      []string
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
func loadUnits(pkgs []*listedPackage) ([]loadUnit, error) {
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
	return topoUnits(units)
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
			return nil, errors.New("lint: import cycle among listed packages")
		}
	}
	out := make([]loadUnit, len(order))
	for i, idx := range order {
		out[i] = units[idx]
	}
	return out, nil
}

// goList runs `go list -json patterns` in dir.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
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
