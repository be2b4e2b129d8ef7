package lint

import (
	"go/ast"
	"go/types"
)

// wallClockPackages are the package-path segment patterns in which
// wall-clock reads are forbidden: the simulation and experiment
// packages whose outputs must depend only on the seed and the inputs.
// internal/bvt is deliberately absent — it is driver code for which
// wall-clock time is the point — as is cmd/.
var wallClockForbidden = []string{
	"internal/snr",
	"internal/dataset",
	"internal/experiments",
	"internal/core",
	"internal/te",
	"internal/graph",
	"internal/controller",
	"internal/gate",
	"internal/wan",
	// The fan-out layer counts tasks and times nothing: a duration is
	// an internal/obs/perf phase opened by the pool's caller.
	"internal/par",
	// internal/obs matches the whole observability tree — obs itself
	// plus obs/alert, obs/sli and obs/serve — via pathHasSegments.
	// Trace timestamps and alert fire times must be simulation time;
	// the serving layer's live-client goroutines (SSE heartbeats) opt
	// out per line with a justified //nolint.
	"internal/obs",
}

// wallClockExempt carves packages back out of wallClockForbidden.
// internal/obs/perf is the wall-clock side channel by design — its
// entire purpose is measuring wall latency into a segregated artifact
// that never touches deterministic outputs — so a per-line //nolint on
// every time.Now would be noise, not signal. The exemption is the
// narrowest possible: exactly this package, checked by full segment
// match, so instrumented solver/simulation code (internal/graph,
// internal/wan, the rest of internal/obs) stays covered.
var wallClockExempt = []string{
	"internal/obs/perf",
}

// wallClockFuncs are the time-package functions that read or schedule
// against the wall clock. time.Duration arithmetic and constants
// (time.Hour, d.Seconds(), …) remain free: they are pure values.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// NoWallTime forbids wall-clock reads (time.Now, time.Sleep and the
// other wallClockFuncs) in simulation and experiment packages.
// Simulated time advances by sample index (snr.SampleInterval per
// step); a stray time.Now makes a run irreproducible and a
// time.Sleep couples experiment duration to the host scheduler.
var NoWallTime = &Analyzer{
	Name: "nowalltime",
	Run:  runNoWallTime,
}

func runNoWallTime(pass *Pass) error {
	for _, seg := range wallClockExempt {
		if pathHasSegments(pass.Pkg.Path(), seg) {
			return nil
		}
	}
	forbidden := false
	for _, seg := range wallClockForbidden {
		if pathHasSegments(pass.Pkg.Path(), seg) {
			forbidden = true
			break
		}
	}
	if !forbidden {
		return nil
	}
	for _, file := range pass.Files {
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
			if !ok || pkgName.Imported().Path() != "time" {
				return true
			}
			if !wallClockFuncs[sel.Sel.Name] {
				return true
			}
			if pass.InTestFile(sel.Pos()) {
				// Tests may time themselves; determinism of the
				// simulation outputs is asserted separately.
				return true
			}
			pass.Reportf(sel.Pos(),
				"time.%s in simulation package %s; derive time from the sample index (snr.SampleInterval) so runs replay bit-for-bit",
				sel.Sel.Name, pass.Pkg.Path())
			return true
		})
	}
	return nil
}
