package wan

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/te"
)

// runPoliciesCold is RunPolicies with the rebuild-every-round reference
// in place of the warm pipeline: the same fan-out, children and merge
// order, but each policy swaps in a fresh policyState (working graph or
// gate with its augmenter, solver, buffers) before every round, exactly
// as if each round were round zero.
func (s *Simulation) runPoliciesCold(policies []Policy) ([]*Result, error) {
	children := make([]*obs.Obs, len(policies))
	for i := range children {
		children[i] = s.cfg.Obs.Child()
	}
	out := make([]*Result, len(policies))
	err := par.Stream(
		par.Opts{Workers: s.cfg.Workers, Name: "wan/policies", Obs: s.cfg.Obs},
		len(policies),
		func(worker, i int) (*Result, error) {
			pr, err := s.newPolicyRun(policies[i], children[i])
			if err != nil {
				return nil, err
			}
			for r := 0; r < s.cfg.Rounds; r++ {
				if pr.st, err = pr.newState(); err != nil {
					return nil, err
				}
				if err := pr.round(r); err != nil {
					return nil, err
				}
			}
			return pr.finish(), nil
		},
		func(i int, r *Result) error {
			s.cfg.Obs.Merge(children[i])
			out[i] = r
			return nil
		})
	return out, err
}

// runWarmCold runs the same configuration twice — RunPolicies, whose
// solver state is warm across rounds, and runPoliciesCold — applying
// the same randomized per-round SNR perturbations to both, and returns
// results plus serialized metrics/trace artifacts for each.
func runWarmCold(t *testing.T, cfg SimConfig, policies []Policy, perturb func(*Simulation)) (warm, cold []*Result, warmArt, coldArt [2][]byte) {
	t.Helper()
	run := func(coldSolves bool) ([]*Result, [2][]byte) {
		c := cfg
		o := obs.New("wan-warmcold")
		c.Obs = o
		sim, err := NewSimulation(c)
		if err != nil {
			t.Fatal(err)
		}
		if perturb != nil {
			perturb(sim)
		}
		runPolicies := sim.RunPolicies
		if coldSolves {
			runPolicies = sim.runPoliciesCold
		}
		res, err := runPolicies(policies)
		if err != nil {
			t.Fatal(err)
		}
		var prom, trace bytes.Buffer
		if err := o.Metrics.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if err := o.Trace.WriteJSONL(&trace); err != nil {
			t.Fatal(err)
		}
		return res, [2][]byte{prom.Bytes(), trace.Bytes()}
	}
	warm, warmArt = run(false)
	cold, coldArt = run(true)
	return warm, cold, warmArt, coldArt
}

// assertRunsIdentical compares warm and cold runs field by field
// (Float64bits on every metric — bit identity, not tolerance).
func assertRunsIdentical(t *testing.T, warm, cold []*Result, warmArt, coldArt [2][]byte) {
	t.Helper()
	if len(warm) != len(cold) {
		t.Fatalf("result counts differ: %d vs %d", len(warm), len(cold))
	}
	for i := range warm {
		w, c := warm[i], cold[i]
		if w.Policy != c.Policy || len(w.Rounds) != len(c.Rounds) {
			t.Fatalf("run %d shape differs: %v/%d vs %v/%d", i, w.Policy, len(w.Rounds), c.Policy, len(c.Rounds))
		}
		for r := range w.Rounds {
			wm, cm := w.Rounds[r], c.Rounds[r]
			if wm.Round != cm.Round || wm.Changes != cm.Changes || wm.LinksDark != cm.LinksDark ||
				math.Float64bits(wm.OfferedGbps) != math.Float64bits(cm.OfferedGbps) ||
				math.Float64bits(wm.ShippedGbps) != math.Float64bits(cm.ShippedGbps) ||
				math.Float64bits(wm.CapacityGbps) != math.Float64bits(cm.CapacityGbps) ||
				math.Float64bits(wm.DisruptedGbpsSec) != math.Float64bits(cm.DisruptedGbpsSec) ||
				math.Float64bits(wm.MinSNRdB) != math.Float64bits(cm.MinSNRdB) {
				t.Fatalf("policy %v round %d differs:\nwarm %+v\ncold %+v", w.Policy, r, wm, cm)
			}
		}
		if !reflect.DeepEqual(w.Rounds, c.Rounds) {
			t.Fatalf("policy %v rounds differ beyond compared fields", w.Policy)
		}
	}
	if !bytes.Equal(warmArt[0], coldArt[0]) {
		t.Fatal("warm and cold metrics artifacts differ")
	}
	if !bytes.Equal(warmArt[1], coldArt[1]) {
		t.Fatal("warm and cold trace artifacts differ")
	}
}

// TestWarmStartMatchesColdSolves is the tentpole determinism
// invariant: warm-start solver state reused across rounds produces
// byte-identical results and artifacts to rebuilding everything each
// round, across all three policies, under randomized per-round SNR
// perturbation sequences.
func TestWarmStartMatchesColdSolves(t *testing.T) {
	cfg := testSimConfig(t)
	cfg.DemandSigma = 0.1
	policies := []Policy{PolicyStatic100, PolicyStaticMax, PolicyDynamic}
	// Randomized SNR perturbations, same seeded sequence for both runs:
	// dips and spikes at random (fiber, wavelength, round) cells force
	// forced-downgrade and upgrade churn so the warm topology/augmenter
	// state is genuinely exercised (entries appearing, mutating, and
	// disappearing between rounds).
	perturb := func(sim *Simulation) {
		r := rng.New(0xd1b)
		for i := 0; i < 40; i++ {
			f := r.Intn(cfg.Net.NumFibers)
			w := r.Intn(cfg.Net.Wavelengths)
			round := r.Intn(cfg.Rounds)
			if err := sim.OverrideSNR(f, w, round, r.Uniform(2, 22)); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm, cold, warmArt, coldArt := runWarmCold(t, cfg, policies, perturb)
	assertRunsIdentical(t, warm, cold, warmArt, coldArt)
}

// TestWarmStartMatchesColdSolvesContinental runs the same invariant on
// a (small) continental topology with a demand cap, so the paper-scale
// code path — ParseTopology, MaxDemands, LengthAware SNR — is the one
// being pinned.
func TestWarmStartMatchesColdSolvesContinental(t *testing.T) {
	net, err := ParseTopology("continental:24", 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig{
		Net:            net,
		Rounds:         8,
		RoundInterval:  6 * time.Hour,
		Seed:           41,
		DemandFraction: 0.8,
		DemandSigma:    0.1,
		MaxDemands:     96,
		LengthAware:    true,
	}
	policies := []Policy{PolicyStatic100, PolicyDynamic}
	warm, cold, warmArt, coldArt := runWarmCold(t, cfg, policies, nil)
	assertRunsIdentical(t, warm, cold, warmArt, coldArt)
}

// continental200 is the paper-scale backbone at a test-sized
// wavelength count.
func continental200(t *testing.T) *Network {
	t.Helper()
	if testing.Short() {
		t.Skip("continental:200 run in -short mode")
	}
	net, err := ParseTopology("continental:200", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestWarmStartMatchesColdSolvesKPathContinental200 pins the k-path
// allocator — and under it the graph.PathSolver kernel — to the same
// invariant at continental:200: the warm pipeline hands it the
// persistent augmented graph (idle fakes present at capacity 0), the
// cold one a compact per-round Augment, and under randomized per-round
// SNR churn both must ship the same bits and write the same metrics
// and trace bytes. That holds only if a capacity-0 edge is invisible to
// every Yen search: no path, no tie-break, no work count.
func TestWarmStartMatchesColdSolvesKPathContinental200(t *testing.T) {
	net := continental200(t)
	cfg := SimConfig{
		Net:            net,
		Rounds:         4,
		RoundInterval:  6 * time.Hour,
		Seed:           41,
		DemandFraction: 0.8,
		DemandSigma:    0.1,
		MaxDemands:     200,
		LengthAware:    true,
		TE:             te.KPath{},
	}
	perturb := func(sim *Simulation) {
		r := rng.New(0x4b50)
		for i := 0; i < 400; i++ {
			f := r.Intn(net.NumFibers)
			w := r.Intn(net.Wavelengths)
			round := r.Intn(cfg.Rounds)
			if err := sim.OverrideSNR(f, w, round, r.Uniform(2, 22)); err != nil {
				t.Fatal(err)
			}
		}
	}
	policies := []Policy{PolicyStatic100, PolicyDynamic}
	warm, cold, warmArt, coldArt := runWarmCold(t, cfg, policies, perturb)
	assertRunsIdentical(t, warm, cold, warmArt, coldArt)
	if warm[1].TotalChanges() == 0 || warm[1].TotalShipped() <= warm[0].TotalShipped() {
		t.Fatalf("dynamic k-path run made %d changes and shipped %v vs static %v: the fake edges were never exercised",
			warm[1].TotalChanges(), warm[1].TotalShipped(), warm[0].TotalShipped())
	}
}

// TestPathSolverReuseMatchesRebuildContinental200: one PathSolver held
// across rounds of capacity churn on the continental:200 augmented
// graph (Refresh per round, every demand's Yen search on the same
// scratch) returns exactly the paths and work counts of a solver built
// from nothing for each call — so how long a caller keeps the kernel
// can never show in a result.
func TestPathSolverReuseMatchesRebuildContinental200(t *testing.T) {
	net := continental200(t)
	g := net.G.Clone()
	for id := 0; id < g.NumEdges(); id++ {
		g.SetCapacity(graph.EdgeID(id), 100*float64(net.Wavelengths))
	}
	top := core.NewTopology(g)
	aug, err := core.NewAugmenter(top, core.PenaltyTrafficProportional)
	if err != nil {
		t.Fatal(err)
	}
	all, err := GravityTraffic(net, 1.2*g.TotalCapacity())
	if err != nil {
		t.Fatal(err)
	}
	demands := LargestDemands(all, 200)

	reused := graph.NewPathSolver(aug.G)
	r := rng.New(0x5eed)
	for round := 0; round < 4; round++ {
		// Churn as SNR does: links go dark or change rate, headroom
		// appears and disappears.
		for id := 0; id < g.NumEdges(); id++ {
			eid := graph.EdgeID(id)
			switch {
			case r.Bernoulli(0.05):
				g.SetCapacity(eid, 0)
			case r.Bernoulli(0.3):
				g.SetCapacity(eid, 50*float64(1+r.Intn(4)))
			}
			extra := 0.0
			if r.Bernoulli(0.4) {
				extra = 50 * float64(1+r.Intn(2))
			}
			if err := top.SetUpgrade(eid, extra, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := aug.Refresh(); err != nil {
			t.Fatal(err)
		}
		reused.Refresh()
		for _, d := range demands {
			var gotSt, wantSt graph.SolveStats
			got := reused.KShortestPaths(d.Src, d.Dst, 4, &gotSt)
			want := aug.G.KShortestPathsStats(d.Src, d.Dst, 4, &wantSt)
			if !reflect.DeepEqual(got, want) || gotSt != wantSt {
				t.Fatalf("round %d demand %d->%d: reused solver %+v %+v, rebuilt %+v %+v",
					round, d.Src, d.Dst, got, gotSt, want, wantSt)
			}
		}
	}
}
