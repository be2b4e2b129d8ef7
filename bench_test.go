package repro

// bench_test.go regenerates every table and figure of the paper as a
// benchmark target, per DESIGN.md's experiment index. Each benchmark
// runs the corresponding experiment at the Quick scale (the paper-scale
// run is cmd/rwc-experiments without -quick) and reports the headline
// metric through b.ReportMetric so `go test -bench=.` doubles as a
// results table.
//
// Ablation benches at the bottom quantify the design choices DESIGN.md
// calls out: penalty functions, TE algorithm on the same augmented
// graph, augmentation granularity, and the two flow solvers.

import (
	"bytes"
	"fmt"
	"math"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/modulation"
	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/obs/flight"
	"repro/internal/obs/hist"
	"repro/internal/obs/serve"
	"repro/internal/rng"
	"repro/internal/te"
	"repro/internal/wan"
)

func opts() experiments.Options { return experiments.QuickOptions() }

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1(opts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(len(res.PerWavelength)), "wavelengths")
		}
	}
}

func BenchmarkFigure2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2a(opts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.FracHDRUnder2*100, "%HDR<2dB")
			b.ReportMetric(res.MeanRange, "mean-range-dB")
		}
	}
}

func BenchmarkFigure2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2b(opts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.FracAtLeast175*100, "%feasible>=175G")
			b.ReportMetric(res.GainTbpsAt2000Links, "gain-Tbps@2000links")
		}
	}
}

func BenchmarkFigure3a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3a(opts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.Median[175]), "median-failures@175G")
			b.ReportMetric(float64(res.Median[200]), "median-failures@200G")
		}
	}
}

func BenchmarkFigure3b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3b(opts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.MeanHours[100], "mean-failure-hours@100G")
		}
	}
}

func BenchmarkFigure4a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(opts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.Shares.DurationShare[0]*100, "%duration-maintenance")
		}
	}
}

func BenchmarkFigure4b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(opts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.Shares.OpportunityEventShare()*100, "%opportunity-events")
		}
	}
}

func BenchmarkFigure4c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4c(opts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.FracAbove3*100, "%failures-SNR>=3dB")
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(opts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.Panels[2].EVM, "16QAM-EVM")
		}
	}
}

func BenchmarkFigure6b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6b(opts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.PowerCycleMean, "powercycle-mean-s")
			b.ReportMetric(res.HotMean*1000, "hot-mean-ms")
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure7(opts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.Modes[0].Upgrades), "upgrades-few-increases")
			b.ReportMetric(float64(res.Modes[1].Upgrades), "upgrades-short-paths")
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure8(opts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.WidestAfter, "widest-single-path-Gbps")
		}
	}
}

func BenchmarkTheorem1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Theorem1(opts())
		if err != nil {
			b.Fatal(err)
		}
		if res.Holds != res.Trials {
			b.Fatalf("theorem failed: %d/%d", res.Holds, res.Trials)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.Trials), "instances")
		}
	}
}

func BenchmarkThroughputGains(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ThroughputGains(opts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.GainOverStatic, "dynamic/static")
		}
	}
}

func BenchmarkAvailability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AvailabilityGains(opts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.AvoidableFrac*100, "%failures-avoidable")
		}
	}
}

func BenchmarkThresholdSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ThresholdSensitivity(opts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.Points[0].GainTbpsAt2000-res.Points[len(res.Points)-1].GainTbpsAt2000, "gain-span-Tbps")
		}
	}
}

func BenchmarkControllerSafeguards(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ControllerAblation(opts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.Variants[0].Changes), "changes-plain")
			b.ReportMetric(float64(res.Variants[1].Changes), "changes-damped")
		}
	}
}

// --- Fan-out ---

// BenchmarkFigure2aWorkers measures the deterministic fan-out on the
// fleet generation + analysis path behind Figure 2a/2b. Output is
// byte-identical for every worker count (see internal/par and the CI
// byte-identity smoke); only wall time may differ, and only when
// GOMAXPROCS grants real parallelism — on a single-core runner the
// two entries should be within noise of each other.
func BenchmarkFigure2aWorkers(b *testing.B) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			o := opts()
			o.Workers = w
			for i := 0; i < b.N; i++ {
				res, err := experiments.Figure2a(o)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(res.MeanRange, "mean-range-dB")
				}
			}
		})
	}
}

// BenchmarkScrapeUnderLoad measures a /metrics scrape of the live
// operations plane while writer goroutines hammer the registry — the
// cost a running simulation pays per Prometheus scrape. The handler is
// driven directly (no network) so the number isolates snapshot +
// rendering, which is the part internal/obs/serve owns.
func BenchmarkScrapeUnderLoad(b *testing.B) {
	o := obs.New()
	// A registry population comparable to a real wansim run: a few
	// hundred labelled series plus a histogram.
	for i := 0; i < 200; i++ {
		o.Counter(fmt.Sprintf("bench_series_%03d_total", i), "scrape-load fixture series",
			obs.Label{Key: "policy", Value: "dynamic"}).Inc()
	}
	hist := o.Histogram("bench_work", "scrape-load fixture histogram",
		[]float64{16, 64, 256, 1024, 4096, 16384, 65536})
	srv, err := serve.New(serve.Options{Obs: o, Tool: "bench", Admit: func([]float64) serve.AdmitResponse { return serve.AdmitResponse{} }})
	if err != nil {
		b.Fatal(err)
	}
	// scrape-bytes is the size of one scrape no writer can move: every
	// series registered, before the writers start. The timed scrapes
	// below race the writers, so their sizes vary with how far the
	// writers got.
	writers := make([]*obs.Counter, 4)
	for w := range writers {
		writers[w] = o.Counter(fmt.Sprintf("bench_writer_%d_total", w), "scrape-load writer series")
	}
	scrape := func() int {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != 200 {
			b.Fatalf("scrape failed: %d", rec.Code)
		}
		return rec.Body.Len()
	}
	scrapeBytes := scrape()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range writers {
		wg.Add(1)
		go func(c *obs.Counter) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					hist.Observe(float64(i % 70000))
				}
			}
		}(c)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scrape()
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	b.ReportMetric(float64(scrapeBytes), "scrape-bytes")
}

// --- Ablations ---

// ablationTopology builds a mid-size random WAN with upgrades for the
// penalty/TE ablations.
func ablationTopology(seed uint64) (*core.Topology, []te.Demand) {
	r := rng.New(seed)
	g := graph.New()
	const n = 20
	g.AddNodes(n)
	top := core.NewTopology(g)
	for i := 0; i < n*4; i++ {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if u == v {
			continue
		}
		id := g.AddEdge(graph.Edge{From: u, To: v, Capacity: 100, Weight: r.Uniform(1, 5)})
		if r.Bernoulli(0.7) {
			_ = top.SetUpgrade(id, 100, r.Uniform(10, 100))
		}
		_ = top.SetTraffic(id, r.Uniform(0, 80))
	}
	var demands []te.Demand
	for len(demands) < 15 {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if u == v {
			continue
		}
		demands = append(demands, te.Demand{Src: u, Dst: v, Volume: r.Uniform(40, 160)})
	}
	return top, demands
}

// benchPenalty measures throughput and upgrade count for one penalty
// function on the shared ablation topology.
func benchPenalty(b *testing.B, p core.PenaltyFunc) {
	top, demands := ablationTopology(1)
	b.ResetTimer()
	var upgrades, shipped float64
	for i := 0; i < b.N; i++ {
		aug, err := core.Augment(top, p)
		if err != nil {
			b.Fatal(err)
		}
		alloc, err := te.Greedy{}.Allocate(aug.Graph, demands)
		if err != nil {
			b.Fatal(err)
		}
		dec, err := aug.Translate(graph.FlowResult{Value: alloc.Throughput, EdgeFlow: alloc.EdgeFlow})
		if err != nil {
			b.Fatal(err)
		}
		upgrades = float64(len(dec.Changes))
		shipped = dec.Value
	}
	b.ReportMetric(upgrades, "upgrades")
	b.ReportMetric(shipped, "shipped-Gbps")
}

func BenchmarkAblationPenaltyMatrix(b *testing.B)  { benchPenalty(b, core.PenaltyFromMatrix) }
func BenchmarkAblationPenaltyTraffic(b *testing.B) { benchPenalty(b, core.PenaltyTrafficProportional) }
func BenchmarkAblationPenaltyUnit(b *testing.B)    { benchPenalty(b, core.PenaltyUnitWeights) }

// benchTE measures one TE algorithm on the same augmented topology.
func benchTE(b *testing.B, alg te.Algorithm) {
	top, demands := ablationTopology(2)
	aug, err := core.Augment(top, core.PenaltyFromMatrix)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var shipped float64
	for i := 0; i < b.N; i++ {
		alloc, err := alg.Allocate(aug.Graph, demands)
		if err != nil {
			b.Fatal(err)
		}
		shipped = alloc.Throughput
	}
	b.ReportMetric(shipped, "shipped-Gbps")
}

func BenchmarkAblationTEShortestPath(b *testing.B)  { benchTE(b, te.ShortestPath{}) }
func BenchmarkAblationTEGreedy(b *testing.B)        { benchTE(b, te.Greedy{}) }
func BenchmarkAblationTEKPath(b *testing.B)         { benchTE(b, te.KPath{}) }
func BenchmarkAblationTEMaxConcurrent(b *testing.B) { benchTE(b, te.MaxConcurrent{}) }

// BenchmarkAblationLadder compares one fake edge to max capacity (the
// default) against one fake edge per ladder rung.
func BenchmarkAblationLadder(b *testing.B) {
	for _, granular := range []bool{false, true} {
		name := "single-step"
		if granular {
			name = "per-rung"
		}
		b.Run(name, func(b *testing.B) {
			r := rng.New(3)
			g := graph.New()
			const n = 15
			g.AddNodes(n)
			top := core.NewTopology(g)
			ladder := modulation.Default()
			for i := 0; i < n*3; i++ {
				u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
				if u == v {
					continue
				}
				id := g.AddEdge(graph.Edge{From: u, To: v, Capacity: 100, Weight: 1})
				if !r.Bernoulli(0.7) {
					continue
				}
				if granular {
					// One fake edge per rung above 100: approximated
					// here by several parallel upgrade annotations on
					// extra parallel physical edges of rung-step size.
					prev := modulation.Gbps(100)
					for _, m := range ladder.Modes() {
						if m.Capacity <= 100 {
							continue
						}
						step := g.AddEdge(graph.Edge{From: u, To: v, Capacity: 0, Weight: 1})
						_ = top.SetUpgrade(step, float64(m.Capacity-prev), 50)
						prev = m.Capacity
					}
				} else {
					_ = top.SetUpgrade(id, 100, 50)
				}
			}
			src, dst := graph.NodeID(0), graph.NodeID(n-1)
			b.ResetTimer()
			var v float64
			for i := 0; i < b.N; i++ {
				aug, err := core.Augment(top, core.PenaltyFromMatrix)
				if err != nil {
					b.Fatal(err)
				}
				res, err := aug.Graph.MinCostMaxFlow(src, dst)
				if err != nil {
					b.Fatal(err)
				}
				v = res.Value
			}
			b.ReportMetric(v, "maxflow-Gbps")
		})
	}
}

// BenchmarkFlowSolvers compares Dinic and successive-shortest-path on a
// backbone-scale graph.
func BenchmarkFlowSolvers(b *testing.B) {
	build := func() *graph.Graph {
		r := rng.New(5)
		g := graph.New()
		const n = 60
		g.AddNodes(n)
		for i := 0; i < n*5; i++ {
			u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
			if u == v {
				continue
			}
			g.AddEdge(graph.Edge{From: u, To: v, Capacity: r.Uniform(10, 200), Cost: r.Uniform(0, 5)})
		}
		return g
	}
	g := build()
	b.Run("dinic-maxflow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.MaxFlow(0, 59, math.Inf(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ssp-mincostmaxflow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.MinCostMaxFlow(0, 59); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Flight recorder ---

// loggedFrames counts the frames of a written flight log, off the
// benchmark's clock and allocation count.
func loggedFrames(b *testing.B, log []byte) int {
	b.Helper()
	b.StopTimer()
	defer b.StartTimer()
	l, err := flight.ReadLog(bytes.NewReader(log))
	if err != nil {
		b.Fatal(err)
	}
	return len(l.Frames)
}

// BenchmarkWANFlight measures flight-recording overhead on the
// dynamic-policy WAN simulation: "off" is the plain run, "on" records
// one frame per round and serializes the full log (frames + trailer)
// at the end, reporting the frame count and encoded log size. The two
// variants run the same seed, so the gap between them is the price of
// the per-link decision audit. "on+hist" is the whole round write path
// over a 2000-round horizon, wired as rwc-wansim wires it under
// -metrics-out -hist-out -flight-out: registry with a history sink,
// recorder, the default alert rules.
func BenchmarkWANFlight(b *testing.B) {
	base := func() wan.SimConfig {
		return wan.SimConfig{
			Net:            wan.Abilene(2),
			Rounds:         16,
			Seed:           2017,
			DemandFraction: 1.2,
			DemandSigma:    0.1,
		}
	}
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim, err := wan.NewSimulation(base())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(wan.PolicyDynamic); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := base()
			cfg.Flight = flight.New()
			sim, err := wan.NewSimulation(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(wan.PolicyDynamic); err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			if err := cfg.Flight.WriteLog(&buf, flight.Meta{Tool: "bench", Seed: 2017}, flight.Trailer{}); err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(float64(loggedFrames(b, buf.Bytes())), "frames")
				b.ReportMetric(float64(buf.Len()), "log-bytes")
			}
		}
	})
	b.Run("on+hist", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := base()
			cfg.Rounds = 2000
			cfg.Obs = obs.New()
			cfg.Alerts = alert.DefaultWANRules()
			store := hist.New(hist.Options{Tool: "bench", Seed: cfg.Seed})
			cfg.Obs.Metrics.SetHistory(store.Root().Bind(cfg.Obs.Clock))
			cfg.Flight = flight.New()
			sim, err := wan.NewSimulation(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(wan.PolicyDynamic); err != nil {
				b.Fatal(err)
			}
			var log, archive bytes.Buffer
			tr, err := flight.TrailerOf(cfg.Obs)
			if err != nil {
				b.Fatal(err)
			}
			if err := cfg.Flight.WriteLog(&log, flight.Meta{Tool: "bench", Seed: 2017}, tr); err != nil {
				b.Fatal(err)
			}
			if err := store.Archive().WriteBinary(&archive); err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(float64(loggedFrames(b, log.Bytes())), "frames")
				b.ReportMetric(float64(log.Len()), "log-bytes")
				b.ReportMetric(float64(archive.Len()), "hist-bytes")
			}
		}
	})
}

// --- Warm-start hot path ---

// BenchmarkSteadyStateRound measures one dynamic TE round on the
// warm-start pipeline — Augmenter.Refresh + warm Greedy allocation +
// TranslateInto over a persistent topology, the exact loop
// internal/wan runs per round. After warm-up the round is
// allocation-free: every buffer (augmented graph, solver scratch,
// decision, attribution) is reused across rounds.
func BenchmarkSteadyStateRound(b *testing.B) {
	top, demands := ablationTopology(4)
	aug, err := core.NewAugmenter(top, core.PenaltyFromMatrix)
	if err != nil {
		b.Fatal(err)
	}
	alg := te.NewWarm(te.Greedy{})
	var dec core.Decision
	r := rng.New(17)
	edges := top.G.Edges()
	round := func() {
		// Perturb headroom the way SNR churn does, then solve.
		for _, e := range edges {
			if _, ok := top.Upgrades[e.ID]; ok {
				_ = top.SetUpgrade(e.ID, r.Uniform(20, 120), r.Uniform(10, 100))
			}
		}
		if err := aug.Refresh(); err != nil {
			b.Fatal(err)
		}
		alloc, err := alg.Allocate(aug.G, demands)
		if err != nil {
			b.Fatal(err)
		}
		if err := aug.TranslateInto(&dec, graph.FlowResult{Value: alloc.Throughput, EdgeFlow: alloc.EdgeFlow}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(dec.Value, "shipped-Gbps")
}

// BenchmarkContinentalRound runs the paper-scale throughput simulation
// on a 200-node continental backbone (≈2400 fiber×wavelength links at 8
// wavelengths) — the scale §1 of the paper argues for, far beyond the
// Abilene default. phases/op, pops/op and relaxations/op are the
// dynamic policy's exact greedy work over its 4 rounds (see
// reportDynamicWork).
func BenchmarkContinentalRound(b *testing.B) {
	runs := continentalRoundTE(b, nil)
	b.StopTimer()
	b.ReportMetric(runs[2].TotalShipped()/runs[0].TotalShipped(), "dynamic/static")
	reportDynamicWork(b, nil)
}

// reportDynamicWork reports the dynamic policy's exact work over
// continentalRoundConfig's 4 rounds under alg — phases/op, pops/op and
// relaxations/op — read from one more dynamic run with a registry
// attached. The caller has stopped the timer, so the timed
// runs record nothing and each policy keeps its own warm allocator.
func reportDynamicWork(b *testing.B, alg te.Algorithm) {
	cfg := continentalRoundConfig(b, alg)
	cfg.Obs = obs.New()
	sim, err := wan.NewSimulation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sim.RunPolicies([]wan.Policy{wan.PolicyDynamic}); err != nil {
		b.Fatal(err)
	}
	pl := obs.L("policy", wan.PolicyDynamic.String())
	b.ReportMetric(cfg.Obs.Counter("rwc_work_ssp_phases_total", "", pl).Value(), "phases/op")
	b.ReportMetric(cfg.Obs.Counter("rwc_work_dijkstra_pops_total", "", pl).Value(), "pops/op")
	b.ReportMetric(cfg.Obs.Counter("rwc_work_arc_relaxations_total", "", pl).Value(), "relaxations/op")
}

// BenchmarkNewSimulationContinental200 is the greedy workload's set-up
// alone: SNR pre-generation for continental:200 at 8 wavelengths over
// 88 six-hour rounds, then the 800 heaviest gravity demands, picked as
// the pairs are visited. B/op is the kept SNR rows (one sample a round)
// and the 800 kept demands; the jitter takes one normal a kept sample,
// the horizon's other samples are neither drawn nor built, and the
// 39 800-pair matrix is never held.
func BenchmarkNewSimulationContinental200(b *testing.B) {
	benchNewSimulation(b, "continental:200", 88, 800)
}

// BenchmarkNewSimulationContinental1000 is the set-up of the CI scale
// smoke's continental:1000 run: 4 rounds and the cap of 4 demands a
// node. Its time is mostly the O(n²) visit of the 999 000 gravity
// pairs; its B/op is the SNR rows and the 4 000 kept demands, a small
// fraction of the 24 MB the matrix would take.
func BenchmarkNewSimulationContinental1000(b *testing.B) {
	benchNewSimulation(b, "continental:1000", 4, 4000)
}

// BenchmarkNewSimulationContinental64Daemon is the daemon workload's
// set-up alone: continental:64 at 8 wavelengths with a 1 600-round
// budget (12 s of 10 ms ticks, plus a third) and the daemon's cap of 4
// demands a node. Its SNR rows are 18× the greedy shape's per fiber.
func BenchmarkNewSimulationContinental64Daemon(b *testing.B) {
	benchNewSimulation(b, "continental:64", 1600, 4*64)
}

// benchNewSimulation times wan.NewSimulation on one worker for the
// topology at 8 wavelengths, the round budget and the demand cap, at
// seed 2017 and the daemon's offered load.
func benchNewSimulation(b *testing.B, topology string, rounds, maxDemands int) {
	net, err := wan.ParseTopology(topology, 8, 2017)
	if err != nil {
		b.Fatal(err)
	}
	cfg := wan.SimConfig{
		Net:            net,
		Rounds:         rounds,
		Seed:           2017,
		DemandFraction: 1.2,
		DemandSigma:    0.1,
		MaxDemands:     maxDemands,
		Workers:        1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wan.NewSimulation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// continentalRoundConfig is the continental:200 backbone at 8
// wavelengths, capped at its 800 heaviest demands, for 4 rounds under
// the given TE algorithm (nil is the default greedy one).
func continentalRoundConfig(b *testing.B, alg te.Algorithm) wan.SimConfig {
	o := opts()
	net, err := wan.ParseTopology("continental:200", 8, o.Seed^0x514)
	if err != nil {
		b.Fatal(err)
	}
	return wan.SimConfig{
		Net:            net,
		Rounds:         4,
		Seed:           o.Seed ^ 0x514,
		DemandFraction: 1.2,
		DemandSigma:    0.1,
		MaxDemands:     800,
		TE:             alg,
	}
}

// continentalRoundTE runs continentalRoundConfig's simulation of each
// policy b.N times and returns the last iteration's static-100G,
// static-max and dynamic runs.
func continentalRoundTE(b *testing.B, alg te.Algorithm) []*wan.Result {
	cfg := continentalRoundConfig(b, alg)
	var runs []*wan.Result
	for i := 0; i < b.N; i++ {
		sim, err := wan.NewSimulation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if runs, err = sim.RunPolicies([]wan.Policy{wan.PolicyStatic100, wan.PolicyStaticMax, wan.PolicyDynamic}); err != nil {
			b.Fatal(err)
		}
	}
	return runs
}

// BenchmarkContinentalRoundKPath is BenchmarkContinentalRound under the
// SWAN-like k-path allocator: same backbone, demand cap, rounds and
// policies, so the two rows differ only in the TE algorithm. The round
// is dominated by the per-demand Yen precompute on graph.PathSolver.
// phases/op, pops/op and relaxations/op are the dynamic policy's exact
// work (see reportDynamicWork): Yen's searches and the water-fill's
// sweeps and room scans.
func BenchmarkContinentalRoundKPath(b *testing.B) {
	runs := continentalRoundTE(b, te.KPath{})
	b.StopTimer()
	b.ReportMetric(runs[2].TotalShipped()/runs[0].TotalShipped(), "dynamic/static")
	reportDynamicWork(b, te.KPath{})
}

// BenchmarkContinentalRoundGK is the same row under Garg–Könemann
// max-concurrent flow: the round is the source-grouped GK steps on
// graph.PathSolver.Tree and the fill walks along them; it decomposes no
// flow into paths. The simulation warms the allocator (te.NewWarm makes
// each policy a te.WarmMaxConcurrent): a policy's first round builds
// the solver, buffers and per-group flow rows, and its later rounds
// reuse them. The dynamic policy's shipped volume moves only when GK's
// paths do.
func BenchmarkContinentalRoundGK(b *testing.B) {
	runs := continentalRoundTE(b, te.MaxConcurrent{})
	b.StopTimer()
	b.ReportMetric(runs[2].TotalShipped()/float64(len(runs[2].Rounds)), "shipped-Gbps")
	reportDynamicWork(b, te.MaxConcurrent{})
}

// BenchmarkKShortestPaths measures the path kernel alone where the TE
// round uses it: Yen with k=4 for the 800 heaviest gravity demands on
// the continental:200 augmented graph (every other link upgradable, so
// live and idle fake edges both occur), one solver per pass as
// te.KPath.Allocate holds it. pops/op and relaxations/op are exact and
// repeat; they move only when the search order does.
func BenchmarkKShortestPaths(b *testing.B) {
	net, err := wan.ParseTopology("continental:200", 8, 2017)
	if err != nil {
		b.Fatal(err)
	}
	// The static-100G backbone: every fiber lights all 8 wavelengths.
	g := net.G.Clone()
	nEdges := g.NumEdges()
	for id := 0; id < nEdges; id++ {
		g.SetCapacity(graph.EdgeID(id), 100*8)
	}
	top := core.NewTopology(g)
	for id := 0; id < nEdges; id += 2 {
		if err := top.SetUpgrade(graph.EdgeID(id), 100, 1); err != nil {
			b.Fatal(err)
		}
	}
	aug, err := core.NewAugmenter(top, core.PenaltyTrafficProportional)
	if err != nil {
		b.Fatal(err)
	}
	all, err := wan.GravityTraffic(net, 1.2*g.TotalCapacity())
	if err != nil {
		b.Fatal(err)
	}
	demands := wan.LargestDemands(all, 800)

	var st graph.SolveStats
	var paths int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, paths = graph.SolveStats{}, 0
		solver := graph.NewPathSolver(aug.G)
		for _, d := range demands {
			paths += len(solver.KShortestPaths(d.Src, d.Dst, 4, &st))
		}
	}
	b.ReportMetric(float64(paths), "paths/op")
	b.ReportMetric(float64(st.Pops), "pops/op")
	b.ReportMetric(float64(st.Relaxations), "relaxations/op")
}
