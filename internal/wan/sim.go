package wan

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/graph"
	"repro/internal/modulation"
	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/obs/flight"
	"repro/internal/obs/perf"
	"repro/internal/par"
	"repro/internal/qot"
	"repro/internal/rng"
	"repro/internal/snr"
	"repro/internal/te"
)

// Policy selects how wavelength capacities are operated.
type Policy int

const (
	// PolicyStatic100 is today's operation: every wavelength fixed at
	// 100 Gbps, declared down when SNR < 6.5 dB.
	PolicyStatic100 Policy = iota
	// PolicyStaticMax configures each wavelength statically at its
	// long-run feasible capacity — the "tempting" §2.1 alternative that
	// harvests throughput but multiplies failures (Figure 3).
	PolicyStaticMax
	// PolicyDynamic adapts each wavelength to its SNR through the
	// controller's decision gate (internal/gate) on the paper's graph
	// abstraction: upgrades are TE decisions on the augmented topology;
	// SNR drops force capacity flaps instead of failures.
	PolicyDynamic
)

// String names the policy.
func (p Policy) String() string {
	if names := [...]string{"static-100G", "static-max", "dynamic"}; uint(p) < uint(len(names)) {
		return names[p]
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// RoundInterval is the simulated time between TE rounds: round r reads
// the first of the 24 telemetry samples its interval holds, sample
// 24·r of a horizon of 24·Rounds.
const RoundInterval = 6 * time.Hour

// SimConfig configures a backbone simulation.
type SimConfig struct {
	Net *Network
	// Rounds is the number of TE recomputation rounds.
	Rounds int
	// Seed drives SNR evolution and traffic churn.
	Seed uint64
	// DemandFraction scales total offered traffic as a fraction of the
	// backbone's aggregate static-100G IP capacity.
	DemandFraction float64
	// DemandSigma is the per-round log-normal demand churn.
	DemandSigma float64
	// MaxDemands, when > 0, keeps only the largest MaxDemands gravity
	// demands (heavy-hitter engineering). Continental topologies produce
	// O(nodes²) demand pairs; production TE engineers the elephants and
	// default-routes the tail, and so does the simulation at scale.
	MaxDemands int
	// TE is the traffic-engineering algorithm (default Greedy — the
	// cost-aware one the abstraction pairs best with).
	TE te.Algorithm
	// ChangeDowntime is the per-capacity-change traffic interruption
	// (68 s for power-cycle BVTs, 35 ms for hitless ones).
	ChangeDowntime time.Duration
	// LengthAware derives each fiber's baseline SNR from its physical
	// length (edge Weight × 100 km) through the qot.Default() line
	// system, so long links have less upgrade headroom than metro hops.
	// When false, every fiber draws from the same calibrated prior
	// (snr.DefaultFiberParams()).
	LengthAware bool
	// Obs receives per-round metrics and the order and alert trace
	// events. Nil (the default) disables observability at no
	// cost. Trace timestamps use the simulation clock (round ×
	// RoundInterval), never the wall clock, so same-seed runs emit
	// byte-identical metrics and traces.
	Obs *obs.Obs
	// Alerts is the rule set the per-policy alert engine evaluates once
	// per round against the metrics registry (see internal/obs/alert).
	// Nil disables alerting; cmd/ wires alert.DefaultWANRules() when
	// observability is on. Alert events ride the trace with simulation
	// timestamps, so they inherit the same-seed byte-identity guarantee.
	Alerts []alert.Rule
	// Flight receives one frame per (policy, round) with per-link SNR,
	// modulation tier, fake-edge offer, solver attribution, and verdict
	// (see internal/obs/flight). Nil disables recording. Capture is
	// pure reads of state each round already computed, so same-seed
	// runs with and without a recorder emit byte-identical metrics,
	// trace, and manifest artifacts. A frame the recorder refuses fails
	// its round.
	Flight *flight.Recorder
	// FlightRun labels this simulation's frames and link table inside a
	// shared recorder: rwc-wansimd names its generations from the second
	// on, and "" is the first (rwc-wansim's one run).
	FlightRun string
	// Workers bounds how many fibers NewSimulation pre-generates
	// concurrently and how many policies RunPolicies runs concurrently;
	// <= 0 means runtime.GOMAXPROCS(0). Results, metrics, and traces
	// are identical for every value (see internal/par).
	Workers int
	// Perf receives the simulation's wall-clock durations — SNR
	// pre-generation ("wan.snr", once) and per-round latencies (one
	// phase per policy, one sample per round) — on the segregated side
	// channel (see internal/obs/perf). Nil disables capture. Perf never
	// feeds back into results or the deterministic artifacts: a run
	// with Perf set emits byte-identical
	// stdout/metrics/trace/manifest/hist/flight to one without.
	Perf *perf.Recorder
	// Pace gates round execution for service mode (internal/daemon).
	// It is consulted before each round with (policy, round); returning
	// false ends that policy's run at a round boundary, so a paced run
	// that executes rounds [0,K) emits exactly the per-round state a
	// free run would have emitted for those rounds. Nil (the default)
	// never gates — the one-shot path. Called from policy worker
	// goroutines; implementations must be safe for concurrent use and
	// must not touch the simulation's deterministic artifacts.
	Pace func(policy Policy, round int) bool
	// RoundHook observes each completed round (policy + its metrics).
	// It exists so a service layer can derive operational telemetry
	// (decisions/sec, round latency) outside the deterministic
	// artifact set; the simulation ignores anything the hook does.
	// Nil disables it. Called from policy worker goroutines;
	// implementations must be safe for concurrent use.
	RoundHook func(policy Policy, m RoundMetrics)
	// SimTimeOffset shifts the simulation-clock timebase: round r is
	// stamped SimTimeOffset + r×RoundInterval. Daemon generations ≥ 2
	// continue the clock past the prior generation's horizon so
	// history timestamps stay monotonic across config reloads. Zero
	// (the default) for one-shot runs.
	SimTimeOffset time.Duration
}

// applyDefaults fills zero values.
func (c *SimConfig) applyDefaults() {
	if c.TE == nil {
		c.TE = te.Greedy{}
	}
	if c.ChangeDowntime == 0 {
		c.ChangeDowntime = 68 * time.Second
	}
	if c.DemandFraction == 0 {
		c.DemandFraction = 0.6
	}
}

// Validate checks the configuration.
func (c *SimConfig) Validate() error {
	if c.Net == nil {
		return fmt.Errorf("wan: nil network")
	}
	if err := c.Net.Validate(); err != nil {
		return err
	}
	if c.Rounds <= 0 {
		return fmt.Errorf("wan: need >= 1 round")
	}
	if c.DemandFraction < 0 {
		return fmt.Errorf("wan: negative demand fraction")
	}
	if total := c.offeredTotal(); math.IsInf(total, 0) || math.IsNaN(total) {
		return fmt.Errorf("wan: demand fraction %v offers %v Gbps, not a finite volume", c.DemandFraction, total)
	}
	// Membership, not exclusion: NaN fails every ordered comparison.
	if !(c.DemandSigma >= 0) {
		return fmt.Errorf("wan: demand sigma %v is not a non-negative number", c.DemandSigma)
	}
	if c.MaxDemands < 0 {
		return fmt.Errorf("wan: negative max demands %d", c.MaxDemands)
	}
	if c.SimTimeOffset < 0 {
		return fmt.Errorf("wan: negative sim time offset %v", c.SimTimeOffset)
	}
	if err := CheckClock(c.Rounds, c.SimTimeOffset); err != nil {
		return err
	}
	if channels := c.Net.NumFibers * c.Net.Wavelengths; c.Rounds > maxKeptSamples/max(channels, 1) {
		return fmt.Errorf("wan: %d rounds of %d fibers x %d wavelengths keep more than %d SNR samples",
			c.Rounds, c.Net.NumFibers, c.Net.Wavelengths, maxKeptSamples)
	}
	return nil
}

// maxKeptSamples bounds the SNR samples NewSimulation generates and
// keeps before round 0, one per fiber, wavelength and round: 2^26
// float64s are 512 MiB, and set-up allocates up to twice that.
const maxKeptSamples = 1 << 26

// CheckClock reports whether the clock reaches offset +
// rounds×RoundInterval, where a reload continues it, without wrapping.
func CheckClock(rounds int, offset time.Duration) error {
	if time.Duration(rounds) > math.MaxInt64/RoundInterval || offset > math.MaxInt64-time.Duration(rounds)*RoundInterval {
		return fmt.Errorf("wan: %d rounds of %v from sim time %v overflow the simulation clock", rounds, RoundInterval, offset)
	}
	return nil
}

// offeredTotal is the base traffic matrix's total volume:
// DemandFraction of the aggregate static capacity (every wavelength of
// every link at 100 Gbps).
func (c *SimConfig) offeredTotal() float64 {
	staticTotal := float64(c.Net.G.NumEdges()) * float64(c.Net.Wavelengths) * 100
	return c.DemandFraction * staticTotal
}

// RoundMetrics records one TE round under one policy.
type RoundMetrics struct {
	Round int
	// OfferedGbps is the total demand volume this round.
	OfferedGbps float64
	// ShippedGbps is the TE throughput.
	ShippedGbps float64
	// CapacityGbps is the total IP capacity available this round.
	CapacityGbps float64
	// Changes counts wavelength capacity changes (up or down).
	Changes int
	// LinksDark counts IP adjacencies with zero capacity.
	LinksDark int
	// DisruptedGbpsSec estimates traffic hit by reconfigurations:
	// Σ over changed links of (traffic on link × downtime seconds).
	DisruptedGbpsSec float64
	// MinSNRdB is the lowest SNR across every wavelength this round —
	// the §2.3 dip signal the snr_dip alert rule watches. It depends
	// only on the pre-generated SNR evolution, not the policy.
	MinSNRdB float64
}

// SatisfiedFraction returns shipped/offered (1 when nothing offered).
func (m RoundMetrics) SatisfiedFraction() float64 {
	if m.OfferedGbps <= 0 {
		return 1
	}
	return m.ShippedGbps / m.OfferedGbps
}

// Result is a full simulation run for one policy.
type Result struct {
	Policy Policy
	Rounds []RoundMetrics
}

// MeanSatisfied averages the satisfied fraction over rounds.
func (r *Result) MeanSatisfied() float64 {
	if len(r.Rounds) == 0 {
		return 0
	}
	var s float64
	for _, m := range r.Rounds {
		s += m.SatisfiedFraction()
	}
	return s / float64(len(r.Rounds))
}

// TotalShipped sums throughput over rounds.
func (r *Result) TotalShipped() float64 {
	var s float64
	for _, m := range r.Rounds {
		s += m.ShippedGbps
	}
	return s
}

// TotalChanges sums capacity changes over rounds.
func (r *Result) TotalChanges() int {
	n := 0
	for _, m := range r.Rounds {
		n += m.Changes
	}
	return n
}

// Simulation holds pre-generated SNR state so different policies run
// against identical conditions.
type Simulation struct {
	cfg SimConfig
	// ladder is the modulation ladder every policy reads
	// (modulation.Default).
	ladder *modulation.Ladder
	// snrAt[f][w][r] is the SNR of fiber f, wavelength w at round r.
	snrAt       [][][]float64
	demandsBase []te.Demand
}

// NewSimulation generates the SNR evolution and base traffic matrix.
func NewSimulation(cfg SimConfig) (*Simulation, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)

	// Each round reads one sample of the telemetry-cadence horizon; the
	// generator builds those alone (every draw is still made, so they
	// are the full series' samples bit for bit).
	stride := snr.SamplesFor(RoundInterval)
	nSamples := stride * cfg.Rounds

	// In length-aware mode, derive each fiber's baseline SNR from its
	// physical length (edge Weight is distance in 100 km units).
	fiberLenKm := make([]float64, cfg.Net.NumFibers)
	if cfg.LengthAware {
		for _, e := range cfg.Net.G.Edges() {
			fiberLenKm[cfg.Net.FiberOf[e.ID]] = e.Weight * 100
		}
	}

	sim := &Simulation{cfg: cfg, ladder: modulation.Default()}
	line := qot.Default()

	// Pre-split one source per fiber in fiber order, then fan the
	// generation out: splitting before dispatch keeps the fleet
	// byte-identical for every worker count (see internal/par).
	rngs := make([]*rng.Source, cfg.Net.NumFibers)
	for f := range rngs {
		rngs[f] = root.Split()
	}
	var err error
	endSNR := cfg.Perf.Phase("wan.snr")
	sim.snrAt, err = par.Map(
		par.Opts{Workers: cfg.Workers, Name: "wan/snr", Obs: cfg.Obs},
		cfg.Net.NumFibers,
		func(worker, f int) ([][]float64, error) {
			fp := snr.DefaultFiberParams()
			fp.Wavelengths = cfg.Net.Wavelengths
			if cfg.LengthAware {
				lengthKm := max(fiberLenKm[f], line.SpanKm)
				baseline, err := line.SNRdB(lengthKm)
				if err != nil {
					return nil, err
				}
				fp.BaselineMeandB = baseline
				// Per-wavelength spread shrinks: channels of one fiber
				// share the line system; only ripple differs.
				fp.BaselineStddB = 0.8
			}
			return snr.SampleFiber(fp, nSamples, stride, rngs[f])
		})
	endSNR()
	if err != nil {
		return nil, err
	}

	demands, err := GravityTraffic(cfg.Net, cfg.offeredTotal())
	if err != nil {
		return nil, err
	}
	if cfg.MaxDemands > 0 && len(demands) > cfg.MaxDemands {
		demands = LargestDemands(demands, cfg.MaxDemands)
	}
	sim.demandsBase = demands

	// Register the link table with the flight recorder once, up front:
	// the history admission of Log.History is decided here, in edge-ID
	// order, never by recording order, and the run table records the
	// time axis the rebuilt per-link history is stamped on.
	if cfg.Flight != nil {
		if err := cfg.Flight.Bind(cfg.FlightRun, FlightLinks(cfg.Net), FlightLadder(sim.ladder), gate.VerdictNames[:], cfg.SimTimeOffset, RoundInterval); err != nil {
			return nil, err
		}
	}
	return sim, nil
}

// FeasibleAt returns the feasible capacity of fiber f wavelength w at
// round r (0 when no rung is feasible).
func (s *Simulation) FeasibleAt(f, w, r int) modulation.Gbps {
	m, ok := s.ladder.FeasibleCapacity(s.snrAt[f][w][r])
	if !ok {
		return 0
	}
	return m.Capacity
}

// Run executes the simulation under one policy.
func (s *Simulation) Run(policy Policy) (*Result, error) {
	return s.runPolicy(policy, s.cfg.Obs)
}

// RunPolicies executes the simulation under each policy against the
// same pre-generated conditions, fanning out over cfg.Workers. Each
// policy records into a private obs child merged back in policy order,
// so results, metrics, and traces are byte-identical to running the
// policies serially through Run (every trace event is stamped after an
// explicit SetSimTime, making it independent of the clock state a
// preceding policy would have left behind). The returned slice is in
// policy order.
func (s *Simulation) RunPolicies(policies []Policy) ([]*Result, error) {
	children := make([]*obs.Obs, len(policies))
	for i := range children {
		children[i] = s.cfg.Obs.Child()
	}
	out := make([]*Result, len(policies))
	err := par.Stream(
		par.Opts{Workers: s.cfg.Workers, Name: "wan/policies", Obs: s.cfg.Obs},
		len(policies),
		func(worker, i int) (*Result, error) {
			return s.runPolicy(policies[i], children[i])
		},
		func(i int, r *Result) error {
			s.cfg.Obs.Merge(children[i])
			out[i] = r
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// policyState is the warm-start solver state one policy run keeps
// between rounds: a private working graph for the static policies (so
// the shared net.G is never mutated), the dynamic policy's gate with its
// persistent augmenter, the warmed TE algorithm, and reusable output
// buffers. None of it is *semantic* state — the warm-vs-cold tests swap
// in a fresh one before every round and the results are byte-identical
// (under wan's gate settings every round's observations recompute the
// hold streak); what the policy genuinely carries across rounds
// (configured capacities, prevFlow, the traffic RNG, the alert engine)
// lives in policyRun instead.
type policyState struct {
	work *graph.Graph
	gate *gate.Gate
	alg  te.Algorithm
	dec  core.Decision
	att  []core.FakeAttribution
	// demandBuf backs the per-round perturbed demand set.
	demandBuf []te.Demand
	// capNow[e] is edge e's capacity after the round's decisions — the
	// one value behind the TE input (static policies), CapacityGbps, the
	// dark-link count and the flight frame; rewritten every round
	// before it is read.
	capNow []float64
}

// newState builds fresh solver state for the run. The dynamic policy's
// gate has its safeguards off — hold 1, margin 0, no restore floor
// (recovery stays a TE decision), no damping, budget or pins: flap to
// the feasible rung, offer all headroom, raise what the TE selects.
func (pr *policyRun) newState() (*policyState, error) {
	cfg := &pr.s.cfg
	net := cfg.Net
	st := &policyState{
		alg:    te.NewWarm(cfg.TE),
		capNow: make([]float64, net.G.NumEdges()),
	}
	if pr.policy != PolicyDynamic {
		st.work = net.G.Clone()
		return st, nil
	}
	var err error
	st.gate, err = gate.New(gate.Settings{Ladder: pr.s.ladder, Penalty: core.PenaltyTrafficProportional, Hold: 1},
		net.G, net.FiberOf, net.Wavelengths, pr.configured)
	return st, err
}

// policyRun is one policy's run in progress: what the policy carries
// from round to round, the sinks it records into, and the warm solver
// state st.
type policyRun struct {
	s      *Simulation
	policy Policy
	o      *obs.Obs
	res    *Result
	// configured is the per-wavelength configured capacity, fiber-major
	// (fiber × wavelengths + wavelength). Static policies fix it; the
	// dynamic policy's gate evolves it.
	configured []modulation.Gbps
	trafficRng *rng.Source
	prevFlow   []float64
	// eng is the per-policy alert engine: rules see this policy's
	// registry only (children merge back in policy order, so the combined
	// artifacts stay deterministic). Nil rules → nil engine → free no-ops.
	eng *alert.Engine
	// perfPhase names the one aggregated perf phase of this policy (one
	// wall-latency sample per round); "" when perf capture is off.
	perfPhase string
	st        *policyState
	series    policySeries
}

// policySeries holds the handles of every series a policy run
// publishes. Each group is registered by the first call of the record*
// method that writes it — never up front: history admission budgets are
// decided in first-touch order, and a run that never completes a round
// must publish nothing (DESIGN "Observability").
type policySeries struct {
	// recordSolver
	solveWork                                *obs.Histogram
	solves, phases, paths, pops, relaxations *obs.Counter
	// recordAugmenter
	refreshEdges, translateScans *obs.Counter
	// recordRound
	offered, shipped, capacity, linksDark, roundChanges, snrMin, flapRate *obs.Gauge
	rounds, changes, disrupted                                            *obs.Counter
}

// newPolicyRun sets a policy up at round zero.
func (s *Simulation) newPolicyRun(policy Policy, o *obs.Obs) (*policyRun, error) {
	cfg := s.cfg
	net := cfg.Net
	pr := &policyRun{
		s: s, policy: policy, o: o,
		res:        &Result{Policy: policy, Rounds: make([]RoundMetrics, 0, cfg.Rounds)},
		configured: make([]modulation.Gbps, net.NumFibers*net.Wavelengths),
		trafficRng: rng.New(cfg.Seed ^ 0x5eed),
		prevFlow:   make([]float64, net.G.NumEdges()),
		eng:        alert.NewEngine(o, cfg.Alerts...),
	}
	for c := range pr.configured {
		pr.configured[c] = 100
		if policy == PolicyStaticMax {
			pr.configured[c] = s.staticMaxCapacity(c/net.Wavelengths, c%net.Wavelengths)
		}
	}
	if cfg.Perf != nil {
		pr.perfPhase = "wan.round/" + policy.String()
	}
	var err error
	pr.st, err = pr.newState()
	return pr, err
}

// runPolicy is Run with an explicit observability sink, so concurrent
// policy runs can record into private children. It only reads the
// shared pre-generated state (snrAt, demandsBase, cfg).
func (s *Simulation) runPolicy(policy Policy, o *obs.Obs) (*Result, error) {
	pr, err := s.newPolicyRun(policy, o)
	if err != nil {
		return nil, err
	}
	for r := 0; r < s.cfg.Rounds; r++ {
		if s.cfg.Pace != nil && !s.cfg.Pace(policy, r) {
			break
		}
		if err := pr.round(r); err != nil {
			return nil, err
		}
	}
	return pr.res, nil
}

// round executes TE round r: this round's capacities from the SNR, one
// allocation, the policy's capacity decisions, and the round's records.
func (pr *policyRun) round(r int) error {
	s, policy, o, st := pr.s, pr.policy, pr.o, pr.st
	cfg := &s.cfg
	net := cfg.Net
	configured, prevFlow := pr.configured, pr.prevFlow
	nEdges := net.G.NumEdges()
	// The simulation clock is the trace timebase: round × interval
	// (shifted by SimTimeOffset across daemon generations).
	o.SetSimTime(cfg.SimTimeOffset + time.Duration(r)*RoundInterval)
	// The round's one timer (nil Perf returns a shared no-op closer, so
	// the disabled round stays allocation-free).
	endPerf := cfg.Perf.Phase(pr.perfPhase)

	demands := s.demandsBase
	if cfg.DemandSigma > 0 {
		if len(st.demandBuf) != len(demands) {
			st.demandBuf = make([]te.Demand, len(demands))
		}
		demands = PerturbTrafficInto(st.demandBuf, demands, cfg.DemandSigma, pr.trafficRng)
	}
	var offered float64
	for _, d := range demands {
		offered += d.Volume
	}

	metrics := RoundMetrics{Round: r, OfferedGbps: offered, MinSNRdB: s.minSNRAt(r)}
	// augFlow is the solver's flow on the augmented graph (dynamic
	// policy only); the flight frame attributes fake-edge flow from it.
	var augFlow []float64

	// Build this round's IP capacities; count forced changes. Every
	// edge's capacity on st.work is rewritten below before the TE
	// reads it, so carrying last round's values over is safe.
	work := st.work
	switch policy {
	case PolicyStatic100, PolicyStaticMax:
		for id := 0; id < nEdges; id++ {
			f := net.FiberOf[id]
			var capSum modulation.Gbps
			for w, conf := range configured[f*net.Wavelengths : (f+1)*net.Wavelengths] {
				th, err := s.ladder.ThresholdFor(conf)
				if err != nil {
					return err
				}
				if s.snrAt[f][w][r] >= th {
					capSum += conf
				}
				// Below threshold: wavelength is DOWN (binary rule);
				// not a capacity change, an outage.
			}
			st.capNow[id] = float64(capSum)
			work.SetCapacity(graph.EdgeID(id), st.capNow[id])
		}
		alloc, err := st.alg.Allocate(work, demands)
		if err != nil {
			return err
		}
		pr.recordSolver(alloc.Solver)
		metrics.ShippedGbps = alloc.Throughput
		copy(prevFlow, alloc.EdgeFlow)

	case PolicyDynamic:
		// The gate decides: forced downgrades, the augmented TE input
		// (last round's flow as traffic), and after the solve the
		// upgrades of the fibers the TE routed fake-edge flow over.
		g := st.gate
		for c := range configured {
			g.Observe(c, s.snrAt[c/net.Wavelengths][c%net.Wavelengths][r])
		}
		out, err := g.Round(st.alg, demands, prevFlow, &st.dec)
		if err != nil {
			return err
		}
		pr.recordSolver(out.Work)
		pr.recordAugmenter(g.Aug.TakeWork())
		for _, ord := range out.Orders {
			pr.emitOrder(ord, r)
		}
		metrics.Changes = len(out.Orders)
		// Disruption counts upgraded edges only, each once even when its
		// fiber's sibling already raised the wavelengths.
		for _, ch := range st.dec.Changes {
			metrics.DisruptedGbpsSec += prevFlow[ch.Edge] * cfg.ChangeDowntime.Seconds()
		}
		metrics.ShippedGbps = st.dec.Value
		// Capacity after decisions. An upgrade raises both directions
		// of its fiber, so every edge is re-summed.
		for id := range st.capNow {
			st.capNow[id] = g.Capacity(graph.EdgeID(id))
		}
		copy(prevFlow, st.dec.EdgeFlow)
		augFlow = out.Alloc.EdgeFlow

	default:
		return fmt.Errorf("wan: unknown policy %v", policy)
	}

	for _, c := range st.capNow {
		metrics.CapacityGbps += c
		if c == 0 { //nolint:nofloateq // sum of integral Gbps rungs; 0 means truly dark
			metrics.LinksDark++
		}
	}

	if err := pr.captureFlight(r, metrics, augFlow); err != nil {
		return err
	}
	pr.recordRound(metrics)
	// Alerts evaluate after the round's gauges are current, on the
	// round's simulation timestamp.
	pr.eng.EvalRound(r)
	endPerf()
	pr.res.Rounds = append(pr.res.Rounds, metrics)
	if cfg.RoundHook != nil {
		cfg.RoundHook(policy, metrics)
	}
	return nil
}

// minSNRAt returns the lowest SNR across every fiber and wavelength at
// round r.
func (s *Simulation) minSNRAt(r int) float64 {
	min := s.snrAt[0][0][r]
	for f := range s.snrAt {
		for w := range s.snrAt[f] {
			if v := s.snrAt[f][w][r]; v < min {
				min = v
			}
		}
	}
	return min
}

// OverrideSNR pins the SNR of one (fiber, wavelength, round) cell —
// fault injection for scenario tests (e.g. forcing a §2.3-style dip to
// prove the snr_dip alert fires). Call before Run/RunPolicies; every
// policy then sees the injected conditions. The value must be finite:
// a NaN drops out of every minimum, and the trace cannot encode ±Inf.
func (s *Simulation) OverrideSNR(fiber, wavelength, round int, snrdB float64) error {
	if math.IsNaN(snrdB) || math.IsInf(snrdB, 0) {
		return fmt.Errorf("wan: OverrideSNR %v dB is not a finite SNR", snrdB)
	}
	if fiber < 0 || fiber >= len(s.snrAt) {
		return fmt.Errorf("wan: OverrideSNR fiber %d out of range [0,%d)", fiber, len(s.snrAt))
	}
	if wavelength < 0 || wavelength >= len(s.snrAt[fiber]) {
		return fmt.Errorf("wan: OverrideSNR wavelength %d out of range [0,%d)", wavelength, len(s.snrAt[fiber]))
	}
	if round < 0 || round >= len(s.snrAt[fiber][wavelength]) {
		return fmt.Errorf("wan: OverrideSNR round %d out of range [0,%d)", round, len(s.snrAt[fiber][wavelength]))
	}
	s.snrAt[fiber][wavelength][round] = snrdB
	return nil
}

// emitOrder records one wavelength reconfiguration on the trace. The
// per-round count of wan.order events equals RoundMetrics.Changes, so
// a trace consumer can reconstruct exactly the orders a run printed.
func (pr *policyRun) emitOrder(o gate.Order, round int) {
	if pr.o == nil {
		return
	}
	w := pr.s.cfg.Net.Wavelengths
	pr.o.Event("wan.order",
		obs.A("policy", pr.policy.String()),
		obs.A("round", round),
		obs.A("fiber", o.Channel/w),
		obs.A("wavelength", o.Channel%w),
		obs.A("from_gbps", float64(o.From)),
		obs.A("to_gbps", float64(o.To)),
		obs.A("cause", o.Kind.String()))
}

// recordRound publishes one round's metrics as per-policy gauges (the
// latest round's values) and counters (run totals).
func (pr *policyRun) recordRound(m RoundMetrics) {
	o, h := pr.o, &pr.series
	if o == nil {
		return
	}
	if h.rounds == nil {
		pl := obs.L("policy", pr.policy.String())
		h.offered = o.Gauge("wan_offered_gbps", "Total demand volume in the current round.", pl)
		h.shipped = o.Gauge("wan_shipped_gbps", "TE throughput in the current round.", pl)
		h.capacity = o.Gauge("wan_capacity_gbps", "Total IP capacity in the current round.", pl)
		h.linksDark = o.Gauge("wan_links_dark", "IP adjacencies with zero capacity in the current round.", pl)
		h.roundChanges = o.Gauge("wan_round_changes", "Wavelength capacity changes in the current round.", pl)
		h.snrMin = o.Gauge("wan_snr_min_db", "Minimum SNR across every wavelength in the current round (dB); the snr_dip alert watches its dip from the running maximum.", pl)
		h.flapRate = o.Gauge("wan_flap_rate", "Wavelength capacity changes per IP link in the current round.", pl)
		h.rounds = o.Counter("wan_rounds_total", "Simulation rounds executed.", pl)
		h.changes = o.Counter("wan_changes_total", "Wavelength capacity changes across the run.", pl)
		h.disrupted = o.Counter("wan_disrupted_gbps_seconds_total", "Estimated traffic × downtime disrupted by reconfigurations.", pl)
	}
	h.offered.Set(m.OfferedGbps)
	h.shipped.Set(m.ShippedGbps)
	h.capacity.Set(m.CapacityGbps)
	h.linksDark.Set(float64(m.LinksDark))
	h.roundChanges.Set(float64(m.Changes))
	h.snrMin.Set(m.MinSNRdB)
	// Flap rate normalizes changes by IP adjacency count: 1.0 means on
	// average every link changed one wavelength this round.
	h.flapRate.Set(float64(m.Changes) / float64(pr.s.cfg.Net.G.NumEdges()))
	h.rounds.Inc()
	h.changes.Add(float64(m.Changes))
	h.disrupted.Add(m.DisruptedGbpsSec)
}

// recordSolver publishes the flow-solver work behind one TE allocation.
func (pr *policyRun) recordSolver(st te.SolverStats) {
	o, h := pr.o, &pr.series
	if o == nil {
		return
	}
	if h.solveWork == nil {
		pl := obs.L("policy", pr.policy.String())
		// Solver "latency" is deliberately measured in deterministic work
		// units (augmenting paths per solve), not wall seconds: wall time
		// would break the byte-identity guarantee and the nowalltime rule.
		// The te_solver_work_p99 alert thresholds this histogram.
		h.solveWork = o.Histogram("wan_te_solve_work", "Flow-solver work units (augmenting paths) per TE solve.", solveWorkBuckets, pl)

		// rwc_work_*: the exact work-accounting family. Solves, phases and
		// augmenting paths summarize; pops and relaxations localize — they
		// are the inner-loop unit counts that turn "this allocator is N×
		// slower" into "N× more heap pops per phase on this topology". All are
		// plain integers derived from solve order alone, so they are
		// byte-identical at any -workers and feed /queryz per round when a
		// history sink is attached.
		h.solves = o.Counter("rwc_work_solves_total", "Flow-solver invocations (exact work accounting).", pl)
		h.phases = o.Counter("rwc_work_ssp_phases_total", "Solver phases: Dijkstra runs / BFS level graphs / water-fill sweeps (exact work accounting).", pl)
		h.paths = o.Counter("rwc_work_augmenting_paths_total", "Augmenting paths / path pushes applied (exact work accounting).", pl)
		h.pops = o.Counter("rwc_work_dijkstra_pops_total", "Priority-queue dequeues across every shortest-path search (exact work accounting).", pl)
		h.relaxations = o.Counter("rwc_work_arc_relaxations_total", "Residual arcs / path edges examined in solver inner loops (exact work accounting).", pl)
	}
	h.solveWork.Observe(float64(st.Augmentations))
	h.solves.Add(float64(st.Solves))
	h.phases.Add(float64(st.Phases))
	h.paths.Add(float64(st.Augmentations))
	h.pops.Add(float64(st.Pops))
	h.relaxations.Add(float64(st.Relaxations))
}

// recordAugmenter publishes the augmentation layer's per-round work
// (dynamic policy only). AttributionChecks is deliberately not
// published: attribution runs only when a flight recorder is attached,
// and publishing it would break the invariant that flight on/off runs
// emit byte-identical metrics.
func (pr *policyRun) recordAugmenter(w core.WorkStats) {
	o, h := pr.o, &pr.series
	if o == nil {
		return
	}
	if h.refreshEdges == nil {
		pl := obs.L("policy", pr.policy.String())
		h.refreshEdges = o.Counter("rwc_work_augmenter_refresh_edges_total", "Edges refreshed into the augmented graph G' (exact work accounting).", pl)
		h.translateScans = o.Counter("rwc_work_augmenter_translate_scans_total", "Fake-edge scans translating flows back to capacity orders (exact work accounting).", pl)
	}
	h.refreshEdges.Add(float64(w.RefreshEdges))
	h.translateScans.Add(float64(w.TranslateScans))
}

// solveWorkBuckets spans trivial solves (a handful of paths) to
// pathological ones; the te_solver_work_p99 alert threshold (20000)
// sits inside the top finite bucket.
var solveWorkBuckets = []float64{16, 64, 256, 1024, 4096, 16384, 65536}

// staticMaxCapacity is the feasible capacity a static planner would
// pick for a wavelength from its whole-horizon SNR (the §2.1
// "configure capacities statically near the actual SNR" counterfactual,
// using the 5th-percentile-like lower HDR bound approximated by the
// minimum of per-round samples excluding total outages).
func (s *Simulation) staticMaxCapacity(f, w int) modulation.Gbps {
	row := s.snrAt[f][w]
	// Lower bound: 5th percentile of round samples.
	sorted := append([]float64(nil), row...)
	slices.Sort(sorted)
	lo := sorted[len(sorted)/20]
	m, ok := s.ladder.FeasibleCapacity(lo)
	if !ok {
		return s.ladder.Min().Capacity
	}
	return m.Capacity
}
