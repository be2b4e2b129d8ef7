package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// spawnTimeout bounds one workload run in a child harness.
const spawnTimeout = 10 * time.Minute

// spawn runs one workload in a fresh copy of this program, exactly as
// the driver does, so a clean heap and an unshared resident-set
// high-water mark stand behind every number. The child's table goes to
// tee (nil discards it); the result line is parsed and returned.
func (e *env) spawn(ctx context.Context, workload string, seed uint64, trace bool, tee io.Writer) (resultLine, error) {
	var line resultLine
	self, err := os.Executable()
	if err != nil {
		return line, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	ctx, cancel := context.WithTimeout(ctx, spawnTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self,
		"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(e.seconds, 'g', -1, 64), "-trace", t)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	runErr := cmd.Run()
	out := strings.TrimRight(stdout.String(), "\n")
	last := out[strings.LastIndexByte(out, '\n')+1:]
	if tee != nil {
		fmt.Fprintln(tee, out)
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return line, fmt.Errorf("%s seed %d: no result line (%v, exit: %v)", workload, seed, err, runErr)
	}
	return line, nil
}

// runAll runs every workload untraced and then traced.
func (e *env) runAll(ctx context.Context) int {
	code := 0
	for _, w := range e.cat.Workloads {
		for _, trace := range []bool{false, true} {
			line, err := e.spawn(ctx, w.Name, e.seed, trace, e.log)
			if err != nil {
				return fail(err)
			}
			if !line.Correct {
				code = 1
			}
		}
	}
	return code
}

// runSmoke runs every workload, untraced and traced, in this process at
// sizes that finish in seconds.
func (e *env) runSmoke(ctx context.Context) int {
	code := 0
	for _, w := range e.cat.Workloads {
		for _, trace := range []bool{false, true} {
			s := *e
			s.workload, s.trace, s.seconds = w.Name, trace, 1
			o, err := runners[w.Name](&s, ctx)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", w.Name, err))
			}
			line, err := s.report(e.log, o)
			if err != nil {
				return fail(err)
			}
			if !line.Correct {
				code = 1
			}
		}
	}
	return code
}

// aaRuns is how many runs (seeds) each set of -aa makes per workload,
// the number the driver's own acceptance run makes.
const aaRuns = 10

// qualityFloor is how far shipped_frac may fall between the two sets on
// any one seed. The metric is a pure function of the seed, so a
// seed-for-seed comparison resolves a loss that the bound in
// BENCHMARK.json, which has to sit above the spread between seeds,
// lets through.
const qualityFloor = 0.01

// aaRow compares one end-to-end metric on one workload across two sets
// of runs of the same code.
type aaRow struct {
	Workload string       `json:"workload"`
	Metric   string       `json:"metric"`
	Unit     string       `json:"unit"`
	Better   string       `json:"better"`
	Bound    float64      `json:"bound"`
	Values   [2][]float64 `json:"values"`
	Median   [2]float64   `json:"median"`
	// Spread is each set's inter-quartile distance over its median.
	Spread [2]float64 `json:"spread"`
	// Worse is how much worse the second median is than the first, as a
	// share of the first (negative: better).
	Worse float64 `json:"worse"`
	// PairedWorse is the largest amount by which the second set is worse
	// than the first on one and the same seed.
	PairedWorse float64 `json:"paired_worse"`
	OK          bool    `json:"ok"`
}

// aaResult is the -aa report (bench/results/seed.json is the seed
// commit's).
type aaResult struct {
	Seconds  float64 `json:"seconds"`
	Runs     int     `json:"runs"`
	BaseSeed uint64  `json:"base_seed"`
	Rows     []aaRow `json:"end_to_end"`
	// Traced holds, per workload, the per-layer metrics of one traced run
	// from each set (seed BaseSeed).
	Traced map[string][2]map[string]float64 `json:"per_layer"`
	OK     bool                             `json:"ok"`
}

// worse is how much worse b is than a in the metric's direction, as a
// share of a.
func worse(better string, a, b float64) float64 {
	if better == higher {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// compare fills a row's statistics and applies the acceptance rule:
// both spreads within the bound (set-up time is exempt from that), the
// second median no worse than the first by more than the bound, and
// shipped_frac no worse than qualityFloor on any single seed.
func (r *aaRow) compare() {
	for i, v := range r.Values {
		r.Median[i], r.Spread[i] = median(v), spread(v)
	}
	r.Worse = worse(r.Better, r.Median[0], r.Median[1])
	r.PairedWorse = math.Inf(-1)
	for i := range r.Values[0] {
		r.PairedWorse = math.Max(r.PairedWorse, worse(r.Better, r.Values[0][i], r.Values[1][i]))
	}
	r.OK = r.Worse <= r.Bound
	if r.Metric != "setup_s" {
		r.OK = r.OK && r.Spread[0] <= r.Bound && r.Spread[1] <= r.Bound
	}
	if r.Metric == "shipped_frac" {
		r.OK = r.OK && r.PairedWorse <= qualityFloor
	}
}

// runAA runs two full sets back to back — per set and workload, aaRuns
// untraced runs on seeds BaseSeed, BaseSeed+1, … and one traced run —
// and prints, per end-to-end metric and workload, both medians, their
// relative difference and the bound.
func (e *env) runAA(ctx context.Context, resultPath string) int {
	res := aaResult{Seconds: e.seconds, Runs: aaRuns, BaseSeed: e.seed, OK: true,
		Traced: make(map[string][2]map[string]float64)}
	endToEnd := e.cat.EndToEnd
	for _, w := range e.cat.Workloads {
		for _, m := range endToEnd {
			res.Rows = append(res.Rows, aaRow{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
		}
	}
	for set := 0; set < 2; set++ {
		for wi, w := range e.cat.Workloads {
			for i := 0; i < aaRuns; i++ {
				seed := e.seed + uint64(i)
				line, err := e.spawn(ctx, w.Name, seed, false, nil)
				if err != nil {
					return fail(err)
				}
				if !line.Correct {
					res.OK = false
					fmt.Fprintf(e.log, "set %d %s seed %d: %d of %d operations failed\n", set+1, w.Name, seed, line.Failed, line.Attempted)
				}
				for mi, m := range endToEnd {
					r := &res.Rows[wi*len(endToEnd)+mi] // rows are workload-major
					r.Values[set] = append(r.Values[set], line.Metrics[m.Name].Value)
				}
				fmt.Fprintf(e.log, "set %d %s seed %d done\n", set+1, w.Name, seed)
			}
			line, err := e.spawn(ctx, w.Name, e.seed, true, nil)
			if err != nil {
				return fail(err)
			}
			res.OK = res.OK && line.Correct
			layer := make(map[string]float64, len(line.Metrics))
			for _, m := range e.cat.PerLayer {
				layer[m.Name] = line.Metrics[m.Name].Value
			}
			pair := res.Traced[w.Name]
			pair[set] = layer
			res.Traced[w.Name] = pair
		}
	}

	fmt.Fprintf(e.log, "\n%-20s %-17s %14s %8s %14s %8s %9s %9s %7s\n", "workload", "metric", "median 1", "spread", "median 2", "spread", "worse", "paired", "bound")
	for i := range res.Rows {
		r := &res.Rows[i]
		r.compare()
		verdict := "ok"
		if !r.OK {
			verdict, res.OK = "OUTSIDE", false
		}
		fmt.Fprintf(e.log, "%-20s %-17s %14.6g %7.2f%% %14.6g %7.2f%% %+8.2f%% %+8.2f%% %6.0f%% %s\n",
			r.Workload, r.Metric, r.Median[0], 100*r.Spread[0], r.Median[1], 100*r.Spread[1], 100*r.Worse, 100*r.PairedWorse, 100*r.Bound, verdict)
	}
	// Work counts compare two runs of one program and must repeat exactly.
	for _, w := range []string{wlGreedy, wlGK, wlKPath} {
		for _, m := range e.cat.PerLayer {
			if !strings.HasPrefix(m.Name, "te.") || !strings.HasSuffix(m.Name, "_per_round") {
				continue
			}
			a, b := res.Traced[w][0][m.Name], res.Traced[w][1][m.Name]
			if math.Float64bits(a) != math.Float64bits(b) {
				res.OK = false
				fmt.Fprintf(e.log, "%s %s differs between the sets: %v, %v\n", w, m.Name, a, b)
			}
		}
	}
	if resultPath != "" {
		b, err := json.MarshalIndent(res, "", " ")
		if err == nil {
			err = os.WriteFile(resultPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	if !res.OK {
		return 1
	}
	return 0
}
