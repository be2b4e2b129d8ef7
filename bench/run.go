package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"syscall"
	"time"
)

// topologySeed fixes the generated backbones. --seed drives everything
// that varies from run to run on a fixed network (SNR evolution, traffic
// churn, the offered request stream); seeding the topology as well moves
// rounds_per_s by ±25 % from seed to seed, which no regression bound
// could sit under (README: "Seeds").
const topologySeed = 2017

// env is one run's settings.
type env struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// smoke shrinks topologies and budgets so all five workloads finish
	// in seconds; its numbers mean nothing.
	smoke bool
	// cat is BENCHMARK.json.
	cat *catalogue
	// binDir holds the built rwc-wansim, rwc-wansimd and rwc-replay.
	binDir string
	// tmpBase is where per-run scratch directories are made.
	tmpBase string
	// outDir receives trace-<workload>.jsonl.
	outDir string
	// log receives the human-readable table.
	log io.Writer
}

// value is one measured metric with the number of samples behind it.
// For the median of a timing distribution it also carries the highest
// percentile the sample count supports (tailQ 0: none does).
type value struct {
	v            float64
	n            int
	tailQ, tailV float64
}

// outcome is what one run of one workload produced.
type outcome struct {
	attempted, failed int
	// problems describes each failed operation or check, first few only.
	problems []string
	metrics  map[string]value
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]value)} }

// op counts one attempted operation; a non-nil err counts it as failed.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.problems) < 8 {
			o.problems = append(o.problems, err.Error())
		}
	}
}

func (o *outcome) set(name string, v float64, n int) { o.metrics[name] = value{v: v, n: n} }

// median records the median of a timing distribution under name, and
// beside it the highest percentile with ten samples beyond it.
func (o *outcome) median(name string, samples []float64) {
	v := value{v: median(samples), n: len(samples)}
	if q, ok := highestSupported(len(samples)); ok && q > 0.5 {
		v.tailQ, v.tailV = q, percentile(sortedCopy(samples), q)
	}
	o.metrics[name] = v
}

// tail records percentile q of a timing distribution under name. With
// fewer than ten samples beyond q it is not a measurement and reads 0.
func (o *outcome) tail(name string, samples []float64, q float64) {
	if !supported(len(samples), q) {
		o.set(name, 0, len(samples))
		return
	}
	o.set(name, percentile(sortedCopy(samples), q), len(samples))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output, read by the driver.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the human table, then the result line with exactly the
// end-to-end metrics (trace off) or the per-layer metrics (trace on).
func (e *env) report(w io.Writer, o *outcome) (resultLine, error) {
	line := resultLine{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue),
	}
	want := e.cat.PerLayer
	if !e.trace {
		want = e.cat.EndToEnd
	}
	known := make(map[string]bool)
	for _, m := range append(append([]metricDef(nil), e.cat.EndToEnd...), e.cat.PerLayer...) {
		known[m.Name] = true
	}
	for name := range o.metrics {
		if !known[name] {
			return line, fmt.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	fmt.Fprintf(e.log, "workload %s seed %d seconds %g trace %v\n", e.workload, e.seed, e.seconds, e.trace)
	for _, m := range want {
		v := o.metrics[m.Name] // absent = not on this workload's path = 0
		// An end-to-end metric is compared as a share of its median, so it
		// must be a number and never 0.
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) || (!e.trace && v.v == 0) {
			return line, fmt.Errorf("metric %s is %v", m.Name, v.v)
		}
		line.Metrics[m.Name] = metricValue{v.v, m.Unit}
		fmt.Fprintf(e.log, "  %-34s %16.6f %-12s n=%d", m.Name, v.v, m.Unit, v.n)
		if v.tailQ > 0 {
			fmt.Fprintf(e.log, " p%g=%.6f", 100*v.tailQ, v.tailV)
		}
		fmt.Fprintln(e.log)
	}
	fmt.Fprintf(e.log, "  attempted %d failed %d failed_frac %.6f\n", o.attempted, o.failed, float64(o.failed)/float64(max(o.attempted, 1)))
	for _, p := range o.problems {
		fmt.Fprintf(e.log, "  FAILED: %s\n", p)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return line, err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return line, err
}

// scratch makes a per-run directory; the caller removes it.
func (e *env) scratch() (string, error) {
	if err := os.MkdirAll(e.tmpBase, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.tmpBase, "rwc-bench-")
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSSMB is this process's high-water resident set (Linux
// reports ru_maxrss in KiB).
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// runners maps each workload the harness can run to its implementation.
var runners = map[string]func(*env, context.Context) (*outcome, error){
	wlGreedy: (*env).runOneshot,
	wlGK:     (*env).runOneshot,
	wlKPath:  (*env).runOneshot,
	wlCLI:    (*env).runCLI,
	wlDaemon: (*env).runDaemon,
}
