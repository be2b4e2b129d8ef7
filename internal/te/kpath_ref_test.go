package te

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// refWaterFill is waterFill before its per-demand cursor: every sweep
// scans each unsatisfied demand's tunnels from the first, dead ones
// included. It is the reference the cursor is held to.
func refWaterFill(demands []Demand, states []kpState, inc float64, remaining []float64) (phases, pushes, scans int) {
	for progressed := true; progressed; {
		progressed = false
		phases++
		for i, d := range demands {
			st := &states[i]
			want := d.Volume - st.shipped
			if want <= graph.Eps || len(st.paths) == 0 {
				continue
			}
			step := math.Min(inc, want)
			// Pick the first (lowest-weight) path with room.
			for pi, p := range st.paths {
				room := math.Inf(1)
				scans += len(p.Edges)
				for _, id := range p.Edges {
					if remaining[id] < room {
						room = remaining[id]
					}
				}
				if room <= graph.Eps {
					continue
				}
				amt := math.Min(step, room)
				for _, id := range p.Edges {
					remaining[id] -= amt
					if remaining[id] < 0 {
						remaining[id] = 0
					}
				}
				st.perPath[pi] += amt
				st.shipped += amt
				pushes++
				progressed = true
				break
			}
		}
	}
	return phases, pushes, scans
}

// checkWaterFill runs waterFill and refWaterFill on the same tunnels
// (paths[i] for demands[i]), increment and capacities, and returns an
// error unless every shipped amount, per-path amount and remaining
// capacity is bit-equal, sweeps and pushes are equal, and waterFill
// scanned no more than the reference. It also returns how many scans
// waterFill saved.
func checkWaterFill(demands []Demand, paths [][]graph.Path, inc float64, capacity []float64) (saved int, err error) {
	type run struct {
		states                []kpState
		remaining             []float64
		phases, pushes, scans int
	}
	fill := func(f func([]Demand, []kpState, float64, []float64) (int, int, int)) run {
		r := run{states: make([]kpState, len(demands)), remaining: slices.Clone(capacity)}
		for i := range r.states {
			r.states[i] = kpState{paths: paths[i], perPath: make([]float64, len(paths[i]))}
		}
		r.phases, r.pushes, r.scans = f(demands, r.states, inc, r.remaining)
		return r
	}
	got, want := fill(waterFill), fill(refWaterFill)
	if got.phases != want.phases || got.pushes != want.pushes || got.scans > want.scans {
		return 0, fmt.Errorf("sweeps, pushes, scans = %d, %d, %d; reference %d, %d, %d",
			got.phases, got.pushes, got.scans, want.phases, want.pushes, want.scans)
	}
	same := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for i := range demands {
		g, w := &got.states[i], &want.states[i]
		if !same([]float64{g.shipped}, []float64{w.shipped}) || !same(g.perPath, w.perPath) {
			return 0, fmt.Errorf("demand %d: shipped %v per path %v, reference %v %v", i, g.shipped, g.perPath, w.shipped, w.perPath)
		}
	}
	if !same(got.remaining, want.remaining) {
		return 0, fmt.Errorf("remaining capacities differ from the reference's")
	}
	return want.scans - got.scans, nil
}

// checkKPathWaterFill holds the water-fill to the reference on the
// tunnels, increment and capacities KPath's Allocate gives it for (g,
// demands), as checkWaterFill does.
func checkKPathWaterFill(g *graph.Graph, demands []Demand) (saved int, err error) {
	s := graph.NewPathSolver(g)
	paths := make([][]graph.Path, len(demands))
	for i, d := range demands {
		if d.Volume > 0 {
			paths[i] = s.KShortestPaths(d.Src, d.Dst, kpathK, nil)
		}
	}
	capacity := make([]float64, g.NumEdges())
	for id := range capacity {
		capacity[id] = g.Edge(graph.EdgeID(id)).Capacity
	}
	return checkWaterFill(demands, paths, kpathIncrement(demands), capacity)
}

// TestWaterFillMatchesReference holds the cursor water-fill to the
// full-rescan reference on random instances: tunnels drawn over a few
// shared edges (so they die mid-fill, leading and trailing ones alike),
// zero and near-Eps capacities, empty and tunnel-less demands, and
// increments from a sliver of a demand to more than all of it.
func TestWaterFillMatchesReference(t *testing.T) {
	r := rng.New(0x3f11)
	fewer := 0
	for trial := range 400 {
		nE := 1 + r.Intn(12)
		capacity := make([]float64, nE)
		for id := range capacity {
			switch r.Intn(6) {
			case 0:
				capacity[id] = 0
			case 1:
				capacity[id] = graph.Eps * r.Uniform(0.5, 2)
			default:
				capacity[id] = r.Uniform(0, 40)
			}
		}
		demands := make([]Demand, 1+r.Intn(8))
		paths := make([][]graph.Path, len(demands))
		for i := range demands {
			if !r.Bernoulli(0.1) {
				demands[i].Volume = r.Uniform(0, 30)
			}
			for range r.Intn(5) {
				var p graph.Path
				for range 1 + r.Intn(4) {
					p.Edges = append(p.Edges, graph.EdgeID(r.Intn(nE)))
				}
				paths[i] = append(paths[i], p)
			}
		}
		saved, err := checkWaterFill(demands, paths, r.Uniform(0.05, 40), capacity)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if saved > 0 {
			fewer++
		}
	}
	if fewer == 0 {
		t.Fatal("the cursor never saved a scan: the instances have no dead leading tunnels")
	}
}
