package lint

import (
	"go/ast"
	"go/types"
)

// randPackages are the stdlib sources of non-deterministic (or at
// least non-seed-threaded) randomness the repository bans.
var randPackages = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// NoRandGlobal forbids math/rand and math/rand/v2 outside
// internal/rng. The global source is process-wide mutable state and
// rand.New scatters seeds ad hoc; both break the bit-for-bit replay
// the experiments (and Theorem 1's equivalence check) rely on. All
// stochastic code must thread a repro/internal/rng.Source instead.
var NoRandGlobal = &Analyzer{
	Name: "norandglobal",
	Run:  runNoRandGlobal,
}

func runNoRandGlobal(pass *Pass) error {
	if pathHasSegments(pass.Pkg.Path(), "internal/rng") {
		// The blessed wrapper. It may (and its tests do) reference the
		// stdlib generators for cross-validation.
		return nil
	}
	for _, file := range pass.Files {
		// Dot- and blank-imports hide uses from the selector walk
		// below, so flag the import spec itself.
		for _, imp := range file.Imports {
			path := importPath(imp)
			if !randPackages[path] {
				continue
			}
			if imp.Name != nil && (imp.Name.Name == "." || imp.Name.Name == "_") {
				pass.Reportf(imp.Pos(),
					"%s-import of %q; use repro/internal/rng so the stream is seed-threaded",
					imp.Name.Name, path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.Info.Uses[ident].(*types.PkgName)
			if !ok || !randPackages[pkgName.Imported().Path()] {
				return true
			}
			what := "top-level " + sel.Sel.Name
			if sel.Sel.Name == "New" || sel.Sel.Name == "NewSource" {
				what = "ad-hoc rand." + sel.Sel.Name
			}
			pass.Reportf(sel.Pos(),
				"use of %s.%s (%s); thread a repro/internal/rng.Source instead for deterministic replay",
				pkgName.Imported().Path(), sel.Sel.Name, what)
			return true
		})
	}
	return nil
}

func importPath(imp *ast.ImportSpec) string {
	// The value is a quoted string literal by construction.
	s := imp.Path.Value
	if len(s) >= 2 {
		return s[1 : len(s)-1]
	}
	return s
}
