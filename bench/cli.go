package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
)

const (
	// cliRounds is the per-invocation round budget; with -policy all an
	// invocation is 3×cliRounds policy-rounds.
	cliRounds   = 2000
	cliPolicies = 3
	// cliInvocationSeconds is the wall time of one all-planes invocation
	// on the seed commit; --seconds divided by it is the invocation count.
	cliInvocationSeconds = 2.1
	// cliSetupReps is how often the one-round command runs for the set-up
	// median: it takes milliseconds, mostly process start, so it needs
	// more samples than the other workloads' set-up.
	cliSetupReps = 41
	// planeReps is how often each plane configuration runs in the traced
	// (black-box) pass.
	planeReps = 3
)

// cliArgs is rwc-wansim at its defaults (Abilene, 2 wavelengths,
// -policy all, greedy) with the seed, one worker and a round budget.
func (e *env) cliArgs(rounds int, artifacts []string) []string {
	args := []string{"-seed", strconv.FormatUint(e.seed, 10), "-workers", "1", "-rounds", strconv.Itoa(rounds)}
	return append(args, artifacts...)
}

func (e *env) runCLI(ctx context.Context) (*outcome, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	dir, err := e.scratch()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rounds, invocations, reps := cliRounds, int(math.Round(e.seconds/cliInvocationSeconds)), cliSetupReps
	if e.smoke {
		rounds, reps = 50, 1
	}
	if invocations < 1 {
		invocations = 1
	}
	if e.trace {
		return e.tracePlanes(ctx, dir, rounds)
	}
	o := newOutcome()
	all := artifactArgs(dir, allPlanes...)

	// Set-up is what an invocation costs before its first round: the
	// same command with a one-round budget.
	var setupS []float64
	for i := 0; i < reps; i++ {
		st, err := e.run(ctx, "rwc-wansim", e.cliArgs(1, all)...)
		o.op(err)
		setupS = append(setupS, st.wall.Seconds())
	}

	// Every invocation does identical work (same seed), so the fastest
	// one is the closest to the program's own cost; see quiet.
	var wallMs, cpuMs [][]float64
	var rss float64
	var firstMetrics []byte
	for i := 0; i < invocations; i++ {
		st, err := e.run(ctx, "rwc-wansim", e.cliArgs(rounds, all)...)
		wallMs, cpuMs = append(wallMs, []float64{ms(st.wall)}), append(cpuMs, []float64{ms(st.cpu)})
		rss = math.Max(rss, st.peakRSSMB)
		// Outside the timed command: the artifacts replay from the flight
		// log, and the same seed writes the same bytes every time.
		if err == nil {
			err = e.verifyArtifacts(ctx, dir)
		}
		if err == nil {
			var m []byte
			if m, err = os.ReadFile(artifact(dir, "metrics")); err == nil {
				if firstMetrics == nil {
					firstMetrics = m
				} else if !bytes.Equal(m, firstMetrics) {
					err = fmt.Errorf("invocation %d: same seed, different metrics artifact", i)
				}
			}
		}
		o.op(err)
	}
	fl, err := checkFlight(artifact(dir, "flight"))
	o.op(err)

	policyRounds := float64(cliPolicies * rounds)
	o.median("setup_s", setupS)
	o.set("rounds_per_s", policyRounds/(quiet(wallMs...)/1e3), invocations)
	o.set("cpu_ms_per_round", quiet(cpuMs...)/policyRounds, invocations)
	o.set("peak_rss_mb", rss, invocations)
	o.set("shipped_frac", fl.shippedFrac, fl.dynamicRounds)
	return o, nil
}

// tracePlanes is the CLI workload's per-layer pass. The program is a
// black box, so the observability layer's cost is the wall-time
// difference between runs with different planes switched on.
func (e *env) tracePlanes(ctx context.Context, dir string, rounds int) (*outcome, error) {
	o := newOutcome()
	configs := []struct {
		name   string
		planes []string
	}{
		{"off", nil},
		{"metrics_trace", []string{"metrics", "trace", "manifest"}},
		{"hist", []string{"hist"}},
		{"flight", []string{"flight"}},
		{"all", allPlanes},
	}
	wallS := make(map[string]float64)
	for _, c := range configs {
		var walls [][]float64
		for i := 0; i < planeReps; i++ {
			st, err := e.run(ctx, "rwc-wansim", e.cliArgs(rounds, artifactArgs(dir, c.planes...))...)
			o.op(err)
			walls = append(walls, []float64{st.wall.Seconds()})
		}
		wallS[c.name] = quiet(walls...)
	}
	o.set("cli.invocation_ms", wallS["all"]*1e3, planeReps)
	o.set("obs.planes_on_off_ratio", wallS["all"]/wallS["off"], planeReps)
	o.set("obs.metrics_trace_s", wallS["metrics_trace"]-wallS["off"], planeReps)
	o.set("obs.hist_s", wallS["hist"]-wallS["off"], planeReps)
	o.set("obs.flight_s", wallS["flight"]-wallS["off"], planeReps)
	// The last configuration run was "all": its artifacts are on disk.
	for _, p := range []string{"metrics", "trace", "hist", "flight"} {
		o.set("obs.artifact_bytes."+p, fileSize(artifact(dir, p)), 1)
	}
	o.op(e.verifyArtifacts(ctx, dir))
	return o, nil
}
