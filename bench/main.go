// Command bench is the repository's benchmark: five workloads around the
// TE round loop, end-to-end metrics with the trace off, per-layer metrics
// from a traced pass, and output checks that count as failures.
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//
// is what the driver runs. run.sh is the only way the program is built
// and started: it builds this program and the product binaries it drives
// into <checkout>/.bench_build/bin and execs it, and the program finds
// BENCHMARK.json, the binaries and its scratch space from where its own
// binary lies. The last line of standard output is the result object.
// Without --workload every workload runs in a process of its own; -aa
// runs two full sets and compares them; -smoke runs everything in
// seconds. See README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() { os.Exit(run()) }

// locate fills in the paths of a checkout from the harness's own binary
// at <checkout>/.bench_build/bin/bench.
func (e *env) locate() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	e.binDir = filepath.Dir(self)
	build := filepath.Dir(e.binDir)
	root := filepath.Dir(build)
	e.tmpBase = filepath.Join(build, "tmp")
	e.outDir = filepath.Join(root, "bench", "out")
	e.cat, err = loadCatalogue(filepath.Join(root, "BENCHMARK.json"))
	return err
}

func run() int {
	e := &env{log: os.Stdout}
	if err := e.locate(); err != nil {
		return fail(err)
	}
	flag.StringVar(&e.workload, "workload", "", "run this one workload and print the result line (default: every workload, each in its own process)")
	flag.Uint64Var(&e.seed, "seed", 2017, "seed for every generated input")
	flag.Float64Var(&e.seconds, "seconds", float64(e.cat.RunSeconds), "measuring window; fixes each workload's work budget")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans written to bench/out")
	flag.BoolVar(&e.smoke, "smoke", false, "tiny topologies and budgets: exercises every workload in seconds, measures nothing")
	aa := flag.Bool("aa", false, "run two full sets of ten seeds per workload and compare their medians with the bounds")
	result := flag.String("result", "", "with -aa: also write the comparison as JSON to this file")
	flag.Parse()
	e.trace = *trace != 0

	if flag.NArg() > 0 || e.seconds <= 0 || (e.workload != "" && runners[e.workload] == nil) {
		fmt.Fprintf(os.Stderr, "bench: bad arguments %v (workload %q, seconds %g)\n", flag.Args(), e.workload, e.seconds)
		return 2
	}

	// Children die with this context, so an interrupt leaves nothing
	// running and every deferred clean-up still happens.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	switch {
	case *aa:
		return e.runAA(ctx, *result)
	case e.smoke:
		return e.runSmoke(ctx)
	case e.workload == "":
		return e.runAll(ctx)
	}
	o, err := runners[e.workload](e, ctx)
	if err != nil {
		return fail(err)
	}
	line, err := e.report(os.Stdout, o)
	if err != nil {
		return fail(err)
	}
	if !line.Correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 1
}
