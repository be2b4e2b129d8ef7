package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/snr"
	"repro/internal/te"
	"repro/internal/wan"
)

const (
	// probeDemands is how many of the heaviest demands the graph probes
	// solve, and probeReps how often the core probes repeat.
	probeDemands = 64
	probeReps    = 200
	kspK         = 4
	scaleNodes   = 1000
)

// probe times one direct call into a layer and records it as a span.
func probe(tr *tracer, name string, f func() error) (time.Duration, error) {
	id := tr.begin(name, 0, -1)
	err := f()
	tr.end(id)
	return tr.spans[id-1].dur(), err
}

// layerProbes calls the snr, graph and core layers directly, on inputs
// generated the same way the traced workload's were, so each layer has a
// number of its own beside its share of the round.
func (e *env) layerProbes(o *outcome, net *wan.Network, tr *tracer) error {
	// snr: one fiber at the sample count the greedy workload's horizon
	// needs (wan.NewSimulation's own arithmetic).
	greedyRounds := roundBudget(wlGreedy, e.seconds)
	nSamples := snr.SamplesFor(time.Duration(greedyRounds) * 6 * time.Hour)
	if nSamples < greedyRounds {
		nSamples = greedyRounds
	}
	fp := snr.DefaultFiberParams()
	fp.Wavelengths = wavelengths
	var fiberMs []float64
	for i := 0; i < setupReps; i++ {
		d, err := probe(tr, "snr.generate_fiber", func() error {
			_, err := snr.GenerateFiber(fp, nSamples, rng.New(e.seed).Split())
			return err
		})
		if err != nil {
			return err
		}
		fiberMs = append(fiberMs, ms(d))
	}
	o.median("snr.generate_fiber_ms", fiberMs)
	o.set("snr.samples_per_s", float64(nSamples*wavelengths)/(median(fiberMs)/1e3), len(fiberMs))

	// The graph and core probes work on the static-100G backbone and the
	// heaviest demands of the base (unperturbed) gravity matrix.
	g := net.G.Clone()
	nEdges := g.NumEdges()
	capacity := make([]float64, nEdges)
	for id := range capacity {
		capacity[id] = 100 * wavelengths
		g.SetCapacity(graph.EdgeID(id), capacity[id])
	}
	all, err := wan.GravityTraffic(net, 1.2*100*wavelengths*float64(nEdges))
	if err != nil {
		return err
	}
	demands := wan.LargestDemands(all, probeDemands)

	solver := graph.NewMCFSolver(g)
	flow := make([]float64, nEdges)
	var solveUs []float64
	var mcf graph.SolveStats
	for _, d := range demands {
		dur, err := probe(tr, "graph.mcf_solve", func() error {
			res, err := solver.Solve(d.Src, d.Dst, d.Volume, capacity, flow)
			mcf.Add(res.Stats)
			return err
		})
		if err != nil {
			return err
		}
		solveUs = append(solveUs, us(dur))
	}
	o.median("graph.mcf_solve_us_p50", solveUs)
	o.set("graph.mcf_pops_per_solve", float64(mcf.Pops)/float64(len(demands)), len(demands))
	o.set("graph.mcf_relaxations_per_solve", float64(mcf.Relaxations)/float64(len(demands)), len(demands))

	var kspMs []float64
	var ksp graph.SolveStats
	for _, d := range demands {
		dur, _ := probe(tr, "graph.ksp", func() error {
			g.KShortestPathsStats(d.Src, d.Dst, kspK, &ksp)
			return nil
		})
		kspMs = append(kspMs, ms(dur))
	}
	o.median("graph.ksp_ms_p50", kspMs)
	o.set("graph.ksp_pops_per_call", float64(ksp.Pops)/float64(len(demands)), len(demands))

	// core: every link offers one more 100G step at unit penalty.
	top := core.NewTopology(g)
	for id := 0; id < nEdges; id++ {
		if err := top.SetUpgrade(graph.EdgeID(id), 100, 1); err != nil {
			return err
		}
	}
	aug, err := core.NewAugmenter(top, core.PenaltyTrafficProportional)
	if err != nil {
		return err
	}
	if err := aug.Refresh(); err != nil {
		return err
	}
	alloc, err := te.NewWarm(te.Greedy{}).Allocate(aug.G, demands)
	if err != nil {
		return err
	}
	flowOnAug := graph.FlowResult{Value: alloc.Throughput, EdgeFlow: alloc.EdgeFlow}
	var dec core.Decision
	var att []core.FakeAttribution
	var refreshUs, translateUs, attributionUs []float64
	for i := 0; i < probeReps; i++ {
		d, err := probe(tr, "core.refresh", aug.Refresh)
		if err != nil {
			return err
		}
		refreshUs = append(refreshUs, us(d))
		d, err = probe(tr, "core.translate", func() error { return aug.TranslateInto(&dec, flowOnAug) })
		if err != nil {
			return err
		}
		translateUs = append(translateUs, us(d))
		d, _ = probe(tr, "core.attribution", func() error {
			att = aug.AttributionInto(att, alloc.EdgeFlow)
			return nil
		})
		attributionUs = append(attributionUs, us(d))
	}
	o.median("core.refresh_us_p50", refreshUs)
	o.median("core.translate_us_p50", translateUs)
	o.median("core.attribution_us_p50", attributionUs)

	if e.workload == wlGreedy {
		return e.scaleProbe(o, tr)
	}
	return nil
}

// scaleProbe times one steady-state greedy allocation at
// continental:1000 (round 1; round 0 builds the warm solver).
func (e *env) scaleProbe(o *outcome, tr *tracer) error {
	nodes := scaleNodes
	if e.smoke {
		nodes = 2 * smokeNodes
	}
	rt := &roundTimer{tr: tr}
	wrapped := &timedTE{inner: te.NewWarm(te.Greedy{}), rt: rt}
	s, err := e.setupOnce(nodes, 2, wrapped, rt)
	if err != nil {
		return err
	}
	if _, err := s.sim.Run(wan.PolicyDynamic); err != nil {
		return err
	}
	if len(wrapped.allocMs) != 2 {
		return fmt.Errorf("scale probe: %d allocations in 2 rounds", len(wrapped.allocMs))
	}
	o.op(nil)
	for _, bad := range rt.bad {
		o.op(bad)
	}
	o.set("te.greedy_allocate_ms.c1000", wrapped.allocMs[1], 1)
	return nil
}
