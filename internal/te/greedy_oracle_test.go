package te

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
)

// refRoute is the per-demand reference: the min-cost flow of up to limit
// units from src to dst under capacities capLeft, by successive shortest
// paths that re-run Bellman–Ford on the residual every phase. It keeps
// no potentials, stops nowhere early and remembers nothing between
// calls, so it shares none of the kernel's shortcuts. (The kernel's own
// previous loop is kept as its reference next to it, in
// graph/solver_oracle_test.go; test code does not cross packages.)
func refRoute(g *graph.Graph, capLeft []float64, src, dst graph.NodeID, limit float64) (value, cost float64) {
	n, nE := g.NumNodes(), g.NumEdges()
	// Arc 2i is edge i forward, 2i+1 backward.
	room := make([]float64, 2*nE)
	for i := range capLeft {
		room[2*i] = capLeft[i]
	}
	ends := func(a int) (from, to graph.NodeID, c float64) {
		e := g.Edge(graph.EdgeID(a / 2))
		if a&1 == 0 {
			return e.From, e.To, e.Cost
		}
		return e.To, e.From, -e.Cost
	}
	dist, prev := make([]float64, n), make([]int, n)
	for value+graph.Eps < limit {
		for i := range dist {
			dist[i], prev[i] = math.Inf(1), -1
		}
		dist[src] = 0
		for pass, changed := 0, true; changed && pass < n; pass++ {
			changed = false
			for a := range room {
				u, v, c := ends(a)
				if room[a] > graph.Eps && dist[u]+c+graph.Eps < dist[v] {
					dist[v], prev[v], changed = dist[u]+c, a, true
				}
			}
		}
		if math.IsInf(dist[dst], 1) {
			break
		}
		push := limit - value
		for v := dst; v != src; v, _, _ = ends(prev[v]) {
			push = math.Min(push, room[prev[v]])
		}
		if push <= graph.Eps {
			break
		}
		for v := dst; v != src; v, _, _ = ends(prev[v]) {
			a := prev[v]
			_, _, c := ends(a)
			room[a] -= push
			room[a^1] += push
			cost += push * c
		}
		value += push
	}
	return value, cost
}

// oracleGraph draws a multigraph with parallel edges, dead edges and an
// island (node n) no demand can reach. With negative set, costs are
// w + pi(u) - pi(v) for random node potentials: negative on many edges
// but on no cycle, so the allocation takes the kernel's Bellman–Ford
// start.
func oracleGraph(r *rng.Source, negative bool) (*graph.Graph, int) {
	n := 4 + r.Intn(8)
	g := graph.New()
	g.AddNodes(n + 1)
	pi := make([]int, n)
	if negative {
		for i := range pi {
			pi[i] = r.Intn(6)
		}
	}
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
			Capacity: capacity, Cost: float64(r.Intn(5) + pi[from] - pi[to]), Weight: 1,
		})
	}
	return g, n
}

// oracleDemands draws demands of mixed priority over few sources (so
// several share one, which is what the unreachable-sink memo needs),
// including zero volumes and pairs no path joins.
func oracleDemands(r *rng.Source, n int) []Demand {
	var demands []Demand
	sources := 1 + r.Intn(3)
	for i, m := 0, 2+r.Intn(14); i < m; i++ {
		src, dst := r.Intn(sources), r.Intn(n)
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
	return demands
}

// TestGreedyMatchesOracle holds the greedy loop to its per-demand
// contract. Greedy is sequential, so allocating the first k demands (in
// priority order) and subtracting the allocation of the first k-1
// isolates what the loop did for demand k: its flow, its shipped volume,
// its solver work. For every demand, on the capacity its predecessors
// left:
//
//   - the flow is conserved at every node and ships exactly Shipped;
//   - Shipped and the flow's cost equal the reference's min-cost flow
//     (1e-9 relative; which of several equal-cost flows is not pinned);
//   - a demand that cost one solve and no phase was answered by the
//     unreachable-sink memo, and the reference ships nothing for it.
//
// The whole allocation passes CheckFeasible, the paths of Greedy{} sum to
// Shipped, and ONE WarmGreedy reused across all the graphs (every size,
// negative costs and not) returns bit for bit what a fresh one does.
func TestGreedyMatchesOracle(t *testing.T) {
	r := rng.New(0x6eed)
	reused, prefix := &WarmGreedy{}, &WarmGreedy{}
	memoSkips, negative := 0, 0
	for trial := 0; trial < 300; trial++ {
		g, n := oracleGraph(r, trial%3 == 2)
		if trial%3 == 2 {
			negative++
		}
		demands := oracleDemands(r, n)
		nE := g.NumEdges()

		cold, err := Greedy{}.Allocate(g, demands)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := CheckFeasible(g, cold); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		warm, err := reused.Allocate(g, demands)
		if err != nil {
			t.Fatalf("trial %d: reused allocator: %v", trial, err)
		}
		if !reflect.DeepEqual(warm.EdgeFlow, cold.EdgeFlow) || warm.Solver != cold.Solver ||
			math.Float64bits(warm.Cost) != math.Float64bits(cold.Cost) ||
			math.Float64bits(warm.Throughput) != math.Float64bits(cold.Throughput) {
			t.Fatalf("trial %d: reused allocator %+v cost %v, fresh %+v cost %v", trial, warm.Solver, warm.Cost, cold.Solver, cold.Cost)
		}
		for i := range demands {
			if math.Float64bits(warm.Results[i].Shipped) != math.Float64bits(cold.Results[i].Shipped) {
				t.Fatalf("trial %d demand %d: reused allocator ships %v, fresh %v", trial, i, warm.Results[i].Shipped, cold.Results[i].Shipped)
			}
		}

		// Replay by prefixes.
		order := byPriority(demands)
		inOrder := make([]Demand, len(order))
		for k, i := range order {
			inOrder[k] = demands[i]
		}
		before, capLeft := make([]float64, nE), make([]float64, nE)
		var beforeStats SolverStats
		for k, d := range inOrder {
			a, err := prefix.Allocate(g, inOrder[:k+1])
			if err != nil {
				t.Fatalf("trial %d prefix %d: %v", trial, k, err)
			}
			shipped := a.Results[k].Shipped
			if want := cold.Results[order[k]].Shipped; math.Float64bits(shipped) != math.Float64bits(want) {
				t.Fatalf("trial %d demand %d: prefix ships %v, full allocation %v", trial, order[k], shipped, want)
			}
			net := make([]float64, g.NumNodes())
			var cost float64
			for id := range capLeft {
				e := g.Edge(graph.EdgeID(id))
				capLeft[id] = math.Max(0, e.Capacity-before[id])
				f := a.EdgeFlow[id] - before[id]
				if f < -1e-9 || f > capLeft[id]+1e-9 {
					t.Fatalf("trial %d demand %d: flow %v on edge %d with %v left", trial, order[k], f, id, capLeft[id])
				}
				net[e.From] += f
				net[e.To] -= f
				cost += f * e.Cost
			}
			for v, x := range net {
				want := 0.0
				if graph.NodeID(v) == d.Src {
					want = shipped
				} else if graph.NodeID(v) == d.Dst {
					want = -shipped
				}
				if math.Abs(x-want) > 1e-6 {
					t.Fatalf("trial %d demand %d: net outflow %v at node %d, want %v", trial, order[k], x, v, want)
				}
			}
			refValue, refCost := 0.0, 0.0
			if d.Volume > 0 {
				refValue, refCost = refRoute(g, capLeft, d.Src, d.Dst, d.Volume)
			}
			if !stats.ApproxEqual(shipped, refValue, 1e-9) || !stats.ApproxEqual(cost, refCost, 1e-9) {
				t.Fatalf("trial %d demand %d (%d->%d vol %v): shipped/cost %v/%v, reference %v/%v",
					trial, order[k], d.Src, d.Dst, d.Volume, shipped, cost, refValue, refCost)
			}
			if a.Solver.Solves == beforeStats.Solves+1 && a.Solver.Phases == beforeStats.Phases {
				memoSkips++
				if refValue > graph.Eps {
					t.Fatalf("trial %d demand %d: skipped by the memo, reference ships %v", trial, order[k], refValue)
				}
			}
			copy(before, a.EdgeFlow)
			beforeStats = a.Solver
		}
		if !reflect.DeepEqual(before, cold.EdgeFlow) || beforeStats != cold.Solver {
			t.Fatalf("trial %d: the last prefix is not the full allocation", trial)
		}
	}
	if memoSkips < 100 || negative < 50 {
		t.Fatalf("%d memo skips over %d negative-cost graphs: the fixture no longer exercises them", memoSkips, negative)
	}
}

// TestWarmGreedyCleanAfterFailedAllocate: an Allocate that fails part
// way — a cost edit closes a negative cycle that the second demand's
// source reaches, after the first demand has been routed and committed —
// leaves nothing behind: once the cost is restored the same allocator
// returns what a fresh one does.
func TestWarmGreedyCleanAfterFailedAllocate(t *testing.T) {
	g := graph.New()
	first := g.AddNodes(5)
	a, b, c, d, e := first, first+1, first+2, first+3, first+4
	g.AddEdge(graph.Edge{From: a, To: b, Capacity: 10, Cost: 1})
	g.AddEdge(graph.Edge{From: c, To: d, Capacity: 10, Cost: 2})
	back := g.AddEdge(graph.Edge{From: d, To: c, Capacity: 10, Cost: 1})
	g.AddEdge(graph.Edge{From: d, To: e, Capacity: 10, Cost: -1})
	demands := []Demand{{Src: a, Dst: b, Volume: 4}, {Src: c, Dst: e, Volume: 4}, {Src: a, Dst: b, Volume: 4}}

	w := &WarmGreedy{}
	want, err := Greedy{}.Allocate(g, demands)
	if err != nil {
		t.Fatal(err)
	}
	g.SetCost(back, -5)
	if _, err := w.Allocate(g, demands); err == nil {
		t.Fatal("negative cycle c->d->c not reported")
	}
	g.SetCost(back, 1)
	got, err := w.Allocate(g, demands)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.EdgeFlow, want.EdgeFlow) || got.Solver != want.Solver {
		t.Fatalf("after a failed Allocate: %v %+v, fresh %v %+v", got.EdgeFlow, got.Solver, want.EdgeFlow, want.Solver)
	}
}
