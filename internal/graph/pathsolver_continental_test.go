package graph_test

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/te"
	"repro/internal/wan"
)

// yenOracle is a te.Algorithm for a wan.Simulation that holds every
// round's Yen searches to the reference before te.KPath allocates the
// round.
type yenOracle struct {
	t         *testing.T
	rounds    int // rounds to check; later ones only allocate
	round     int
	shortcuts int // spur searches the twin shortcut answered, all rounds
}

func (o *yenOracle) Name() string { return te.KPath{}.Name() }

func (o *yenOracle) Allocate(g *graph.Graph, demands []te.Demand) (*te.Allocation, error) {
	if o.round < o.rounds {
		s := graph.NewPathSolver(g)
		for _, d := range demands {
			var gotSt, wantSt graph.SolveStats
			got := s.KShortestPaths(d.Src, d.Dst, 4, &gotSt)
			want := graph.RefKShortestPaths(g, d.Src, d.Dst, 4, &wantSt)
			shortcuts, labels := graph.YenCounts(s)
			if !reflect.DeepEqual(got, want) || gotSt.Phases != wantSt.Phases-shortcuts+labels.Phases ||
				gotSt.Pops > wantSt.Pops+labels.Pops || gotSt.Relaxations > wantSt.Relaxations+labels.Relaxations {
				o.t.Fatalf("round %d demand %d->%d: kernel %+v %+v, reference %+v %+v, %d shortcuts, labels %+v",
					o.round, d.Src, d.Dst, got, gotSt, want, wantSt, shortcuts, labels)
			}
			o.shortcuts += shortcuts
		}
	}
	o.round++
	return te.KPath{}.Allocate(g, demands)
}

// TestPathSolverMatchesReferenceYenContinental200 runs the Yen oracle
// where the benchmark runs Yen: continental:200 at 8 wavelengths, the
// 800 heaviest demands at 1.2× capacity, the dynamic policy's augmented
// graph (live and idle twins, paths of 23 hops on average) at seed 2017. For
// each of rounds 0–2 every demand's k = 4 path list must be
// reflect.DeepEqual to the reference's, with its Phases less the spur
// searches the twin shortcut answered plus the labels' one, and no more
// Pops or Relaxations than it has plus the labels'; the random
// oracle graphs have at most 17 nodes. Most spur searches on this graph
// are shortcuts, so the run must take some. About 12 s on a 2-core
// Xeon, nearly all of it the reference; -short checks round 0 only
// (4 s).
func TestPathSolverMatchesReferenceYenContinental200(t *testing.T) {
	net, err := wan.ParseTopology("continental:200", 8, 2017)
	if err != nil {
		t.Fatal(err)
	}
	oracle := &yenOracle{t: t, rounds: 3}
	if testing.Short() {
		oracle.rounds = 1
	}
	sim, err := wan.NewSimulation(wan.SimConfig{
		Net:            net,
		Rounds:         oracle.rounds,
		Seed:           2017,
		DemandFraction: 1.2,
		DemandSigma:    0.1,
		MaxDemands:     4 * net.G.NumNodes(),
		Workers:        1,
		TE:             oracle,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(wan.PolicyDynamic); err != nil {
		t.Fatal(err)
	}
	if oracle.round != oracle.rounds || oracle.shortcuts == 0 {
		t.Fatalf("%d k-path rounds with %d shortcuts, want %d rounds and some", oracle.round, oracle.shortcuts, oracle.rounds)
	}
}
