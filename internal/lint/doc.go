// Package lint is the repository's custom static-analysis suite
// (rwc-lint): nine repo-specific analyzers enforcing the determinism
// and unit-hygiene invariants the reproduction depends on.
//
// The paper's core claim (Theorem 1: min-cost max-flow on the
// augmented graph G′ ≡ max-flow under dynamic capacities) only
// reproduces if simulation runs are bit-for-bit deterministic and if
// dB and Gbps quantities never cross silently. internal/rng exists
// precisely because the math/rand global source is process-wide
// mutable state; this package is what *enforces* that discipline.
//
// AST-local analyzers:
//
//   - norandglobal — forbids math/rand and math/rand/v2 outside
//     internal/rng, so every stochastic path (SNR process, failure
//     tickets, traffic matrices) is seed-threaded through
//     repro/internal/rng.
//   - nowalltime — forbids time.Now / time.Sleep (and the derived
//     wall-clock helpers time.Since, time.Until, time.After,
//     time.Tick, time.NewTimer, time.NewTicker) inside the simulation
//     and experiment packages (internal/snr, internal/dataset,
//     internal/experiments, internal/core, internal/te, ...). Driver
//     code (internal/bvt, cmd/) and _test.go files may use the wall
//     clock.
//   - nofloateq — flags direct == / != between float operands in
//     non-test code, pointing at the tolerance helpers in
//     internal/stats (ApproxEqual, ApproxInDelta). Comparison against
//     an exact constant zero is allowed (zero is a sentinel, and
//     exact-zero tests are well-defined in IEEE 754).
//   - unitmix — flags call sites that pass a value derived from a
//     *dB-named identifier into a *Gbps-named (or Gbps-typed)
//     parameter, and vice versa: the class of bug that silently
//     corrupts the SNR→modulation→capacity translation in
//     internal/core and internal/qot.
//
// Interprocedural determinism analyzers (go/types-aware, with
// cross-package facts; all treat the same artifact-sink set — fmt
// prints, io writes, obs registry/tracer/logger/flight calls — as the
// points where nondeterminism becomes observable):
//
//   - mapiter — forward taint analysis: a value whose order derives
//     from `range` over a map must pass through an explicit sort
//     (sort.*, slices.Sort*) before reaching an artifact sink. A
//     function returning a map-ordered slice exports a "returns"
//     object fact, so callers — in the same package (via an
//     in-package fixpoint) or any importing package — inherit the
//     taint through the call.
//   - goroleak — every `go` statement needs a reachable join or
//     shutdown path: a sync.WaitGroup Add/Done pair, a channel
//     receive in the goroutine body (quit channel, ctx.Done, range
//     over a channel), or a blocking call on a variable the package
//     also Closes/Shuts down (the HTTP-server shape). Bounded fan-out
//     belongs on internal/par, which joins deterministically.
//   - chanorder — an artifact sink inside a select with two or more
//     communication cases (case choice is randomized by the runtime),
//     or inside a range over a channel (fan-in arrival order), is
//     flagged; reassemble by task index à la internal/par first.
//   - seriesname — metric/trace/alert names must be compile-time
//     constant snake_case strings; every registration site exports a
//     module fact, and a Finish pass checks the namespace globally:
//     one name means one series (same kind, same help) module-wide,
//     catching cross-package duplicates and typo'd near-duplicates. A
//     registration written in the same expression (x.Gauge(…).Set(…))
//     is reported too: registration is the cold path, hold the handle.
//
// Meta:
//
//   - nolintpolicy — suppressions must take the canonical form
//     `//nolint:analyzer // reason`; bare, reasonless, badly spaced,
//     and :all forms are rejected. These findings cannot themselves
//     be suppressed.
//
// # Facts and scheduling
//
// Cross-package analysis rides on two mechanisms in this package.
// Object facts (Pass.ExportObjectFact / Pass.ObjectFact) attach a
// string to a types.Object — e.g. mapiter's "returns" taint — and are
// looked up by callers in other packages; this works because the
// Loader caches type-checked packages and serves them back as the
// importer, so a caller's view of an imported function is the *same*
// object the defining package analyzed. Module facts
// (Pass.ExportModuleFact) accumulate globally and are read by an
// analyzer's Finish hook after every package has run — seriesname's
// namespace check. RunParallel analyzes packages level-by-level in
// topological import order, fanning each level out on internal/par;
// facts commit at level barriers and diagnostics are sorted at the
// end, so output is byte-identical for any -workers value — the suite
// dogfoods the invariant it enforces.
//
// Any diagnostic except nolintpolicy's can be suppressed on its line
// with `//nolint:<name> // reason`. The driver also subtracts a
// checked-in baseline file (lint.baseline.json, keyed by analyzer,
// file, and message — not line numbers); the repo's baseline is empty
// and CI asserts it stays that way.
//
// The suite is deliberately built on the standard library only
// (go/ast, go/parser, go/types with the source importer) rather than
// golang.org/x/tools/go/analysis, so it builds offline with an empty
// module cache. The Analyzer / Pass / Diagnostic types mirror the
// x/tools API shape closely enough that porting an analyzer between
// the two is mechanical, and the linttest harness understands the
// same "// want" fixture convention as analysistest.
//
// Run it with `go run ./cmd/rwc-lint ./...` or `make lint`. To add an
// analyzer: implement a *lint.Analyzer, register it in All, and give
// it a fixture package under internal/lint/testdata/src with at least
// one positive ("// want") and one negative case (linttest.RunWithDeps
// for cross-package fact fixtures).
package lint
