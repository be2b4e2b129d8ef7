// Package repro is the root of the Run-Walk-Crawl reproduction
// (Singh et al., "Run, Walk, Crawl: Towards Dynamic Link Capacities",
// HotNets 2017). The public library API lives in repro/rwc; the
// substrates in internal/; runnable tools in cmd/; worked examples are
// the Example functions in repro/rwc. The root package exists to host bench_test.go, the per-figure benchmark
// harness described in DESIGN.md.
//
// The module enforces its determinism and unit invariants mechanically
// with rwc-lint (internal/lint, `make lint`): norandglobal (no
// math/rand outside internal/rng), nowalltime (no wall-clock reads in
// simulation packages), nofloateq (no ==/!= on floats outside tests;
// use the internal/stats tolerance helpers), and unitmix (no dB value
// into a Gbps parameter or vice versa). See DESIGN.md § Correctness
// tooling.
package repro
