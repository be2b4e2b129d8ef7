package te

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// oracleGreedyAllocate is Greedy.Allocate as it stood before it became a
// delegate over WarmGreedy, kept verbatim: a working clone whose
// capacities shrink demand by demand, a fresh solver (and CSR build)
// per demand through Graph.MinCostFlow, paths decomposed on the clone.
func oracleGreedyAllocate(g *graph.Graph, demands []Demand) (*Allocation, error) {
	if err := validateAll(g, demands); err != nil {
		return nil, err
	}
	work := g.Clone()
	alloc := &Allocation{
		Results:  make([]DemandResult, len(demands)),
		EdgeFlow: make([]float64, g.NumEdges()),
	}
	for _, i := range byPriority(demands) {
		d := demands[i]
		alloc.Results[i].Demand = d
		if d.Volume <= 0 {
			continue
		}
		res, err := work.MinCostFlow(d.Src, d.Dst, d.Volume)
		if err != nil {
			return nil, err
		}
		alloc.Solver.addGraph(res.Stats)
		if res.Value <= graph.Eps {
			continue
		}
		paths, err := work.DecomposeFlow(d.Src, d.Dst, res.EdgeFlow)
		if err != nil {
			return nil, err
		}
		for id, f := range res.EdgeFlow {
			if f <= graph.Eps {
				continue
			}
			eid := graph.EdgeID(id)
			c := work.Edge(eid).Capacity - f
			if c < 0 { // float round-off
				c = 0
			}
			work.SetCapacity(eid, c)
			alloc.EdgeFlow[id] += f
		}
		alloc.Results[i].Shipped = res.Value
		alloc.Results[i].Paths = paths
	}
	finish(g, alloc)
	return alloc, nil
}

// TestGreedyMatchesOracle: the delegate returns bit for bit what the
// old loop returned — edge flows, per-demand shipped volumes and paths,
// cost, throughput and solver work — on random multigraphs (parallel
// edges, dead edges, an island no demand can reach) under demands of
// mixed priority that include zero volumes and unreachable pairs.
func TestGreedyMatchesOracle(t *testing.T) {
	r := rng.New(0x6eed)
	for trial := 0; trial < 200; trial++ {
		n := 4 + r.Intn(8)
		g := graph.New()
		g.AddNodes(n + 1) // node n is the island
		for i, m := 0, n+r.Intn(4*n); i < m; i++ {
			from, to := r.Intn(n), r.Intn(n)
			if from == to {
				continue
			}
			capacity := float64(10 * (1 + r.Intn(10)))
			if r.Bernoulli(0.1) {
				capacity = 0
			}
			g.AddEdge(graph.Edge{
				From: graph.NodeID(from), To: graph.NodeID(to),
				Capacity: capacity, Cost: float64(r.Intn(5)), Weight: 1,
			})
		}
		var demands []Demand
		for i, m := 0, 1+r.Intn(12); i < m; i++ {
			src, dst := r.Intn(n), r.Intn(n)
			if src == dst {
				continue
			}
			d := Demand{Src: graph.NodeID(src), Dst: graph.NodeID(dst), Volume: r.Uniform(1, 120), Priority: r.Intn(3)}
			switch {
			case r.Bernoulli(0.1):
				d.Volume = 0
			case r.Bernoulli(0.1):
				d.Dst = graph.NodeID(n)
			}
			demands = append(demands, d)
		}

		want, err := oracleGreedyAllocate(g, demands)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		got, err := Greedy{}.Allocate(g, demands)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(got.EdgeFlow, want.EdgeFlow) {
			t.Fatalf("trial %d: EdgeFlow\n got %v\nwant %v", trial, got.EdgeFlow, want.EdgeFlow)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("trial %d: Results (Shipped/Paths)\n got %+v\nwant %+v", trial, got.Results, want.Results)
		}
		if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) ||
			math.Float64bits(got.Throughput) != math.Float64bits(want.Throughput) {
			t.Fatalf("trial %d: cost/throughput %v/%v, want %v/%v", trial, got.Cost, got.Throughput, want.Cost, want.Throughput)
		}
		if got.Solver != want.Solver {
			t.Fatalf("trial %d: solver stats %+v, want %+v", trial, got.Solver, want.Solver)
		}
	}
}
