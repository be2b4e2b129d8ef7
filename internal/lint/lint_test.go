package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each analyzer gets at least one fixture package with positive
// (// want) and negative cases; the path-policy analyzers get extra
// fixture packages proving the allow/exempt lists.

func TestNoRandGlobal(t *testing.T) {
	linttest.Run(t, "testdata", lint.NoRandGlobal, "norandglobal")
}

func TestNoRandGlobalExemptsRNGPackage(t *testing.T) {
	linttest.Run(t, "testdata", lint.NoRandGlobal, "repro/internal/rng")
}

func TestNoWallTime(t *testing.T) {
	linttest.Run(t, "testdata", lint.NoWallTime, "repro/internal/snr")
}

func TestNoWallTimeRejectsInstrumentedWan(t *testing.T) {
	// An obs-instrumented simulation package: the injected-clock shapes
	// (Set/Now on a sim clock) are clean; direct time.* reads are not.
	linttest.Run(t, "testdata", lint.NoWallTime, "repro/internal/wan")
}

func TestNoWallTimeRejectsObsAlert(t *testing.T) {
	// internal/obs coverage extends to subpackages: the alert engine
	// must stamp fires with simulation time, never the wall clock.
	linttest.Run(t, "testdata", lint.NoWallTime, "repro/internal/obs/alert")
}

func TestNoWallTimeRejectsObsFlight(t *testing.T) {
	// The flight recorder is covered too: frames and the log trailer
	// must be pure functions of simulation state, or replay
	// byte-identity and bisect both break.
	linttest.Run(t, "testdata", lint.NoWallTime, "repro/internal/obs/flight")
}

func TestNoWallTimeObsServeRequiresNolint(t *testing.T) {
	// The HTTP serving layer is also covered, but its live-client
	// goroutines may read wall time behind a same-line, justified
	// //nolint:nowalltime; unsuppressed reads are still flagged.
	linttest.Run(t, "testdata", lint.NoWallTime, "repro/internal/obs/serve")
}

func TestNoWallTimeExemptsObsPerf(t *testing.T) {
	// internal/obs/perf is the wall-clock side channel: the one package
	// carved out of the internal/obs coverage (wallClockExempt). Its
	// fixture reads the wall clock freely and expects zero findings.
	linttest.Run(t, "testdata", lint.NoWallTime, "repro/internal/obs/perf")
}

func TestNoWallTimeRejectsInstrumentedGraph(t *testing.T) {
	// The perf exemption must not leak into the instrumented solver:
	// work accounting in internal/graph stays deterministic integers,
	// and direct time.* reads are still flagged.
	linttest.Run(t, "testdata", lint.NoWallTime, "repro/internal/graph")
}

func TestNoWallTimeRejectsPar(t *testing.T) {
	// The fan-out layer no longer times its pools; the rule keeps a
	// wall-clock read from coming back.
	linttest.Run(t, "testdata", lint.NoWallTime, "repro/internal/par")
}

func TestNoWallTimeAllowsTelemetry(t *testing.T) {
	linttest.Run(t, "testdata", lint.NoWallTime, "repro/internal/telemetry")
}

func TestNoWallTimeAllowsBVT(t *testing.T) {
	linttest.Run(t, "testdata", lint.NoWallTime, "repro/internal/bvt")
}

func TestNoFloatEq(t *testing.T) {
	linttest.Run(t, "testdata", lint.NoFloatEq, "nofloateq")
}

func TestUnitMix(t *testing.T) {
	linttest.Run(t, "testdata", lint.UnitMix, "unitmix")
}

func TestMapIter(t *testing.T) {
	linttest.Run(t, "testdata", lint.MapIter, "mapiter")
}

func TestMapIterCrossPackageFacts(t *testing.T) {
	// mapiterdep.Keys exports a return-taint fact when its package is
	// analyzed; mapiteruse imports it and must inherit the taint even
	// though no map literal appears in the consumer.
	linttest.RunWithDeps(t, "testdata", lint.MapIter,
		[]string{"mapiterdep"}, "mapiteruse")
}

func TestGoroLeak(t *testing.T) {
	linttest.Run(t, "testdata", lint.GoroLeak, "goroleak")
}

func TestChanOrder(t *testing.T) {
	linttest.Run(t, "testdata", lint.ChanOrder, "chanorder")
}

func TestSeriesName(t *testing.T) {
	// The fake obs core loads first so registration methods resolve;
	// the core itself is exempt, the consumer is fully checked, and the
	// intra-package kind/help conflicts exercise the Finish pass.
	linttest.RunWithDeps(t, "testdata", lint.SeriesName,
		[]string{"seriesobs/internal/obs"}, "seriesuse")
}

func TestSeriesNameCrossPackage(t *testing.T) {
	// seriesdup1 registers first and owns the names; seriesdup2's
	// conflicting registrations are reported with seriesdup1 named as
	// the canonical site — the module-wide facts path.
	linttest.RunWithDeps(t, "testdata", lint.SeriesName,
		[]string{"seriesobs/internal/obs", "seriesdup1"}, "seriesdup2")
}

func TestNolintPolicy(t *testing.T) {
	linttest.Run(t, "testdata", lint.NolintPolicy, "nolintpolicy")
}

func TestAllIsTheFullSuite(t *testing.T) {
	names := map[string]bool{}
	for _, a := range lint.All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("analyzer %+v incompletely declared", a)
		}
		if names[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{
		"norandglobal", "nowalltime", "nofloateq", "unitmix",
		"mapiter", "goroleak", "chanorder", "seriesname", "nolintpolicy",
	} {
		if !names[want] {
			t.Fatalf("suite is missing %q", want)
		}
	}
}
