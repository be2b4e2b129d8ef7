package gate

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/modulation"
	"repro/internal/te"
)

// countingTE counts the solves of the algorithm it wraps and sums their
// solver work.
type countingTE struct {
	te.Algorithm
	solves int
	work   te.SolverStats
}

func (c *countingTE) Allocate(g *graph.Graph, demands []te.Demand) (*te.Allocation, error) {
	a, err := c.Algorithm.Allocate(g, demands)
	if err == nil {
		c.solves++
		c.work.Solves += a.Solver.Solves
		c.work.SolveStats.Add(a.Solver.SolveStats)
	}
	return a, err
}

// TestGateRoundCutResolvesOnce: in wan's shape (two fibers s–m and m–d,
// two wavelengths each) with a budget of one upgrade, a real greedy TE
// selects both fibers' fake edges; Round keeps the one carrying more
// fake flow, withdraws the other and solves exactly once more. The final
// allocation fits the cut Aug.G and only the kept edge is upgraded.
func TestGateRoundCutResolvesOnce(t *testing.T) {
	g := graph.New()
	s, m, d := g.AddNode("s"), g.AddNode("m"), g.AddNode("d")
	for _, p := range [][2]graph.NodeID{{s, m}, {m, d}} {
		g.AddEdge(graph.Edge{From: p[0], To: p[1], Weight: 1})
		g.AddEdge(graph.Edge{From: p[1], To: p[0], Weight: 1})
	}
	fiberOf := []int{0, 0, 1, 1}
	const w = 2
	conf := []modulation.Gbps{100, 100, 100, 100}
	gt, err := New(Settings{Ladder: modulation.Default(), Penalty: core.PenaltyTrafficProportional,
		Hold: 1, Budget: 1}, g, fiberOf, w, conf)
	if err != nil {
		t.Fatal(err)
	}
	for c := range conf {
		gt.Observe(c, 17) // 200G feasible: 200 Gbps of headroom per edge
	}
	// Each demand exceeds its hop's 200 Gbps, so each needs its own
	// fake edge: 100 Gbps over s→m's, 80 over m→d's.
	demands := []te.Demand{{Src: s, Dst: m, Volume: 300}, {Src: m, Dst: d, Volume: 280}}
	alg := &countingTE{Algorithm: te.Greedy{}}
	dec := &core.Decision{}
	out, err := gt.Round(alg, demands, make([]float64, g.NumEdges()), dec)
	if err != nil {
		t.Fatal(err)
	}
	if alg.solves != 2 {
		t.Fatalf("Round solved %d times, want 2 (one cut, one re-solve)", alg.solves)
	}
	if out.Work != alg.work {
		t.Fatalf("Round work %+v, want the sum over its solves %+v", out.Work, alg.work)
	}
	if err := te.CheckFeasible(gt.Aug.G, out.Alloc); err != nil {
		t.Fatalf("final allocation on the cut Aug.G: %v", err)
	}
	var upgraded, dropped int
	for _, v := range gt.Verdicts {
		switch v {
		case VerdictUpgraded:
			upgraded++
		case VerdictBudgetDropped:
			dropped++
		}
	}
	if upgraded > 1 || upgraded+dropped < 2 {
		t.Fatalf("verdicts %v: %d upgraded, %d budget-dropped; want ≤ 1 upgraded of ≥ 2 selected", gt.Verdicts, upgraded, dropped)
	}
	if gt.Verdicts[0] != VerdictUpgraded || gt.Verdicts[2] != VerdictBudgetDropped {
		t.Fatalf("verdicts %v: want s→m (more fake flow) upgraded and m→d dropped", gt.Verdicts)
	}
	want := []modulation.Gbps{200, 200, 100, 100}
	for c := range conf {
		if conf[c] != want[c] {
			t.Fatalf("configured %v, want %v", conf, want)
		}
	}
	if len(out.Orders) != 2 || dec.Value != 500 {
		t.Fatalf("orders %+v, shipped %v; want fiber 0's two channels raised and 300+200 Gbps shipped", out.Orders, dec.Value)
	}
}
