package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/te"
	"repro/internal/wan"
)

// oneshotSpec is one in-process workload: continental:200, policy
// dynamic, one TE algorithm.
type oneshotSpec struct {
	// alg returns a fresh algorithm (warm state is per run).
	alg func() te.Algorithm
	// roundsPerSecond × --seconds is the round budget. The work is fixed,
	// not the time, so both sides of a comparison solve the same rounds
	// and the work counters repeat exactly. The rates are what the seed
	// commit sustains and are never changed afterwards.
	roundsPerSecond float64
}

var oneshotSpecs = map[string]oneshotSpec{
	wlGreedy: {func() te.Algorithm { return te.Greedy{} }, 22},
	wlGK:     {func() te.Algorithm { return te.MaxConcurrent{} }, 1.1},
	wlKPath:  {func() te.Algorithm { return te.KPath{} }, 0.42},
}

const (
	oneshotNodes = 200
	smokeNodes   = 32
	wavelengths  = 8
	// repeats is how many times a one-shot workload builds and runs the
	// same simulation. The budget is split between them; see quiet for
	// what the repetition buys.
	repeats = 3
	// setupReps is how many times set-up is timed for its median. The
	// first `repeats` of them are followed by a run.
	setupReps = 7
	// minRounds is the smallest budget of one repeat: round 0 pays
	// first-touch costs and the per-round medians discard it.
	minRounds = 2
)

// roundBudget is the fixed number of rounds each repeat of a one-shot
// workload runs for a measuring window of the given length.
func roundBudget(workload string, seconds float64) int {
	rounds := int(math.Round(oneshotSpecs[workload].roundsPerSecond * seconds / repeats))
	if rounds < minRounds {
		rounds = minRounds
	}
	return rounds
}

func (e *env) nodes() int {
	if e.smoke {
		return smokeNodes
	}
	return oneshotNodes
}

// simConfig is rwc-wansim's configuration for a continental topology:
// 1.2× demand, sigma 0.1, the 4×nodes heaviest demands, 6 h rounds and
// 68 s change downtime (the last two are SimConfig's own defaults).
func (e *env) simConfig(net *wan.Network, rounds int, alg te.Algorithm, rt *roundTimer) wan.SimConfig {
	return wan.SimConfig{
		Net:            net,
		Rounds:         rounds,
		Seed:           e.seed,
		DemandFraction: 1.2,
		DemandSigma:    0.1,
		MaxDemands:     4 * net.G.NumNodes(),
		Workers:        1,
		TE:             alg,
		Pace:           rt.pace,
		RoundHook:      rt.hook,
	}
}

// roundTimer times rounds from outside the simulation through its Pace
// and RoundHook hooks, and checks each round's output.
type roundTimer struct {
	tr     *tracer // nil when tracing is off
	spanID int
	round  int
	// paced is each round's Pace→RoundHook interval.
	paced   []float64
	started time.Time
	// stepMs and stepCPUMs charge all of Run to its rounds: a round's step
	// runs from the previous round's hook (or the start of Run) to its own
	// hook, and the last step also takes what Run does after it, so work
	// that moves out of the round proper is still counted.
	stepMs, stepCPUMs []float64
	mark              time.Time
	cpuMark           time.Duration
	bad               []error
}

func (rt *roundTimer) pace(_ wan.Policy, r int) bool {
	rt.round = r
	if rt.tr != nil {
		rt.spanID = rt.tr.begin("wan.round", 0, r)
	}
	rt.started = time.Now()
	return true
}

func (rt *roundTimer) hook(_ wan.Policy, m wan.RoundMetrics) {
	now, cpu := time.Now(), selfCPU()
	rt.paced = append(rt.paced, ms(now.Sub(rt.started)))
	rt.stepMs = append(rt.stepMs, ms(now.Sub(rt.mark)))
	rt.stepCPUMs = append(rt.stepCPUMs, ms(cpu-rt.cpuMark))
	rt.mark, rt.cpuMark = now, cpu
	if rt.tr != nil {
		rt.tr.end(rt.spanID)
	}
	// Float sums of the same volumes may differ in the last bits.
	if !(m.ShippedGbps > 0 && m.ShippedGbps <= m.OfferedGbps*(1+1e-9)) {
		rt.bad = append(rt.bad, fmt.Errorf("round %d: shipped %v Gbps of %v offered", m.Round, m.ShippedGbps, m.OfferedGbps))
	}
}

// timedTE times Allocate from outside and sums the solver counts each
// allocation reports. The inner algorithm is already warmed: the
// simulation's own te.NewWarm passes an unknown type through, and
// without warming here Greedy would lose its warm path.
type timedTE struct {
	inner   te.Algorithm
	rt      *roundTimer
	allocMs []float64
	solver  te.SolverStats
}

func (t *timedTE) Name() string { return t.inner.Name() }

func (t *timedTE) Allocate(g *graph.Graph, demands []te.Demand) (*te.Allocation, error) {
	id := t.rt.tr.begin("te.allocate", t.rt.spanID, t.rt.round)
	a, err := t.inner.Allocate(g, demands)
	t.rt.tr.end(id)
	if err == nil {
		t.allocMs = append(t.allocMs, ms(t.rt.tr.spans[id-1].dur()))
		t.solver.Solves += a.Solver.Solves
		t.solver.Phases += a.Solver.Phases
		t.solver.Augmentations += a.Solver.Augmentations
		t.solver.Pops += a.Solver.Pops
		t.solver.Relaxations += a.Solver.Relaxations
	}
	return a, err
}

// setup is one timed ParseTopology + NewSimulation.
type setup struct {
	net           *wan.Network
	sim           *wan.Simulation
	parse, newSim time.Duration
}

func (e *env) setupOnce(nodes, rounds int, alg te.Algorithm, rt *roundTimer) (setup, error) {
	var s setup
	parent := 0
	if rt.tr != nil {
		parent = rt.tr.begin("bench.setup", 0, -1)
		defer rt.tr.end(parent)
	}
	timed := func(name string, f func() error) (time.Duration, error) {
		id := 0
		if rt.tr != nil {
			id = rt.tr.begin(name, parent, -1)
			defer rt.tr.end(id)
		}
		t0 := time.Now()
		err := f()
		return time.Since(t0), err
	}
	var err error
	s.parse, err = timed("wan.parse_topology", func() (err error) {
		s.net, err = wan.ParseTopology(fmt.Sprintf("continental:%d", nodes), wavelengths, topologySeed)
		return err
	})
	if err != nil {
		return s, err
	}
	s.newSim, err = timed("wan.new_simulation", func() (err error) {
		s.sim, err = wan.NewSimulation(e.simConfig(s.net, rounds, alg, rt))
		return err
	})
	return s, err
}

// pass is one measured Run.
type pass struct {
	res        *wan.Result
	rt         *roundTimer
	mallocs    uint64
	allocBytes uint64
}

func runPass(sim *wan.Simulation, rt *roundTimer) (pass, error) {
	p := pass{rt: rt}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	rt.mark, rt.cpuMark = time.Now(), selfCPU()
	res, err := sim.Run(wan.PolicyDynamic)
	if n := len(rt.stepMs); n > 0 {
		rt.stepMs[n-1] += ms(time.Since(rt.mark))
		rt.stepCPUMs[n-1] += ms(selfCPU() - rt.cpuMark)
	}
	runtime.ReadMemStats(&m1)
	if err != nil {
		return p, err
	}
	if len(rt.stepMs) != len(res.Rounds) {
		return p, fmt.Errorf("%d round hooks for %d rounds", len(rt.stepMs), len(res.Rounds))
	}
	p.res = res
	p.mallocs, p.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return p, nil
}

// quiet is the time one pass over the round budget takes when nothing
// disturbs it: per round, the fastest of the repeats' readings, summed
// over the rounds. Every repeat does identical work, and the machine's
// other tenants only ever add time to a reading, so the fastest one is
// the closest to the program's own cost. On the shared two-core sandbox
// a slow phase can halve a whole pass's speed; it rarely covers the same
// round in all repeats (README: "Steadiness").
func quiet(readings ...[]float64) float64 {
	var sum float64
	for r := range readings[0] {
		best := readings[0][r]
		for _, rep := range readings[1:] {
			best = math.Min(best, rep[r])
		}
		sum += best
	}
	return sum
}

// arm is one way of running the workload — the algorithm as it is, or
// inside the tracing wrapper — with everything measured on it.
type arm struct {
	// alg returns the algorithm for one build, given that build's timer.
	alg func(*roundTimer) te.Algorithm
	tr  *tracer // nil: untraced

	passes                   []pass
	last                     setup
	setupS, parseMs, newSimS []float64
}

// build builds the workload's simulation from scratch, timing the
// set-up, and if run is set runs the round budget on it.
func (m *arm) build(e *env, o *outcome, run bool) error {
	// Each build starts from a collected heap, so the resident-set
	// high-water mark is one build-and-run's and does not depend on how
	// much of the previous one's garbage happened to be left.
	runtime.GC()
	rt := &roundTimer{tr: m.tr}
	s, err := e.setupOnce(e.nodes(), roundBudget(e.workload, e.seconds), m.alg(rt), rt)
	if err != nil {
		return err
	}
	m.last = s
	m.setupS = append(m.setupS, (s.parse + s.newSim).Seconds())
	m.parseMs, m.newSimS = append(m.parseMs, ms(s.parse)), append(m.newSimS, s.newSim.Seconds())
	if !run {
		return nil
	}
	p, err := runPass(s.sim, rt)
	if err != nil {
		return err
	}
	m.passes = append(m.passes, p)
	o.attempted += len(p.res.Rounds) - len(rt.bad)
	for _, bad := range rt.bad {
		o.op(bad)
	}
	// Same seed, built from scratch: the repeats must agree exactly.
	if !reflect.DeepEqual(m.passes[0].res, p.res) {
		o.op(fmt.Errorf("repeat %d: same seed, different results", len(m.passes)-1))
	}
	return nil
}

// quietMs and quietCPUMs are the passes' quiet wall and CPU time.
func (m *arm) quietMs() float64 {
	var r [][]float64
	for _, p := range m.passes {
		r = append(r, p.rt.stepMs)
	}
	return quiet(r...)
}

func (m *arm) quietCPUMs() float64 {
	var r [][]float64
	for _, p := range m.passes {
		r = append(r, p.rt.stepCPUMs)
	}
	return quiet(r...)
}

// pacedSteady pools the repeats' Pace→RoundHook times, round 0 left out.
func (m *arm) pacedSteady() []float64 {
	var out []float64
	for _, p := range m.passes {
		out = append(out, p.rt.paced[1:]...)
	}
	return out
}

func (e *env) runOneshot(ctx context.Context) (*outcome, error) {
	o := newOutcome()
	spec := oneshotSpecs[e.workload]

	// The end-to-end numbers come from the plain arm, always with the
	// wrapper off. A traced run adds a second arm on the same seed and
	// rounds with the algorithm wrapped, and alternates the two, so that
	// their ratio is taken between neighbours in time.
	plain := &arm{alg: func(*roundTimer) te.Algorithm { return spec.alg() }}
	tr := newTracer(e.workload)
	var wrappers []*timedTE
	traced := &arm{tr: tr, alg: func(rt *roundTimer) te.Algorithm {
		w := &timedTE{inner: te.NewWarm(spec.alg()), rt: rt}
		wrappers = append(wrappers, w)
		return w
	}}
	for i := 0; i < setupReps; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := plain.build(e, o, i < repeats); err != nil {
			return nil, err
		}
		if e.trace && i < repeats {
			if err := traced.build(e, o, true); err != nil {
				return nil, err
			}
		}
	}
	res := plain.passes[0].res
	n := float64(len(res.Rounds))
	o.median("setup_s", plain.setupS)
	o.set("rounds_per_s", n/(plain.quietMs()/1e3), len(res.Rounds)*repeats)
	o.set("cpu_ms_per_round", plain.quietCPUMs()/n, len(res.Rounds)*repeats)
	o.set("peak_rss_mb", selfPeakRSSMB(), 1)
	o.set("shipped_frac", res.MeanSatisfied(), len(res.Rounds))
	if !e.trace {
		return o, nil
	}

	if !reflect.DeepEqual(res, traced.passes[0].res) {
		o.op(fmt.Errorf("traced pass produced different results from the untraced pass"))
	}
	steady := plain.pacedSteady()
	o.median("wan.parse_topology_ms", plain.parseMs)
	o.median("wan.new_simulation_s", plain.newSimS)
	o.median("wan.round_ms_p50", steady)
	o.tail("wan.round_ms_p95", steady, 0.95)
	self := selfTimes(tr.spans)
	var selfMs, allocMs []float64
	var roundTotal, allocTotal float64
	for _, sp := range named(tr.spans, "wan.round") {
		if sp.Round > 0 {
			selfMs = append(selfMs, ms(self[sp.ID]))
			roundTotal += ms(sp.dur())
		}
	}
	// The work counts are per round budget and must repeat exactly.
	solver := wrappers[0].solver
	for i, w := range wrappers {
		allocMs = append(allocMs, w.allocMs[1:]...)
		if w.solver != solver {
			o.op(fmt.Errorf("traced repeat %d: solver counts %+v differ from %+v", i, w.solver, solver))
		}
	}
	for _, a := range allocMs {
		allocTotal += a
	}
	o.median("wan.round_self_ms_p50", selfMs)
	o.set("wan.allocs_per_round", float64(plain.passes[0].mallocs)/n, int(n))
	o.set("wan.bytes_per_round", float64(plain.passes[0].allocBytes)/n, int(n))
	o.median("te.allocate_ms_p50", allocMs)
	o.set("te.allocate_share", allocTotal/roundTotal, len(selfMs))
	o.set("te.solves_per_round", float64(solver.Solves)/n, int(n))
	o.set("te.phases_per_round", float64(solver.Phases)/n, int(n))
	o.set("te.augmentations_per_round", float64(solver.Augmentations)/n, int(n))
	o.set("te.pops_per_round", float64(solver.Pops)/n, int(n))
	o.set("te.relaxations_per_round", float64(solver.Relaxations)/n, int(n))
	o.set("trace.overhead_ratio", plain.quietMs()/traced.quietMs(), repeats)

	if err := e.layerProbes(o, traced.last.net, tr); err != nil {
		return nil, err
	}
	return o, tr.writeJSONL(e.outDir)
}
