// Package te implements traffic-engineering algorithms behind a single
// interface. Crucially for the paper's argument (§3.2, §4), every
// algorithm here treats its input graph as opaque: it neither knows nor
// cares whether an edge is physical or one of the abstraction's fake
// links. Running any of these on an augmented topology and translating
// the result is exactly how the paper keeps "the IP layer algorithms
// unchanged".
//
// Algorithms provided:
//
//   - ShortestPath: OSPF-like single-shortest-path routing (baseline).
//   - Greedy: sequential min-cost flow per demand over residual
//     capacity — the workhorse the experiments pair with the
//     augmentation, since its cost-awareness activates fake links only
//     when the penalty is worth paying.
//   - KPath: SWAN-like k-shortest-path allocation with iterative
//     water-filling across demands.
//   - MaxConcurrent: Garg–Könemann (1+ε) approximation of the maximum
//     concurrent multicommodity flow, the combinatorial stand-in for
//     the LP solvers inside SWAN/B4-style controllers. Its steps are
//     grouped by source on graph.PathSolver's shortest-path tree.
package te

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// Demand is one commodity: Volume units wanted from Src to Dst.
type Demand struct {
	Src, Dst graph.NodeID
	Volume   float64
	// Priority orders demands for allocation: lower values are more
	// important (0 = highest, the default). The paper's §4.2 notes the
	// operator may adjust disruption penalties "according to the
	// traffic priority class"; the allocators here serve higher classes
	// first so they grab undisturbed capacity.
	Priority int
}

// byPriority returns demand indices ordered by ascending Priority,
// stable within a class (preserving the operator's submission order).
func byPriority(demands []Demand) []int {
	return byPriorityInto(nil, demands)
}

// byPriorityInto is byPriority appending into a reusable buffer (pass
// buf[:0] to reuse its backing array).
func byPriorityInto(idx []int, demands []Demand) []int {
	for i := range demands {
		idx = append(idx, i)
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		return cmp.Compare(demands[a].Priority, demands[b].Priority)
	})
	return idx
}

// Validate checks a demand against a graph.
func (d Demand) Validate(g *graph.Graph) error {
	if !g.HasNode(d.Src) || !g.HasNode(d.Dst) {
		return fmt.Errorf("te: demand endpoints %d->%d invalid", int(d.Src), int(d.Dst))
	}
	if d.Src == d.Dst {
		return fmt.Errorf("te: demand with equal endpoints %d", int(d.Src))
	}
	// NaN fails every ordered comparison, so "< 0" alone lets it through
	// — and a NaN volume never reads as satisfied, so the water-filling
	// loop would not terminate.
	if d.Volume < 0 || math.IsNaN(d.Volume) || math.IsInf(d.Volume, 0) {
		return fmt.Errorf("te: demand volume %v is not a finite non-negative number", d.Volume)
	}
	return nil
}

// DemandResult is the allocation for one demand.
type DemandResult struct {
	Demand Demand
	// Shipped is how much of the demand was satisfied.
	Shipped float64
	// Paths decomposes the shipped volume into paths (may be empty for
	// algorithms that only report aggregate edge flows).
	Paths []graph.PathFlow
}

// SolverStats aggregates flow-solver work across one allocation, for
// the observability layer (plain integers; no overhead when unread).
type SolverStats struct {
	// Solves counts individual solver invocations (typically one per
	// demand for the sequential allocators). A demand Greedy answers from
	// its unreachable-sink memo counts one solve and no phase.
	Solves int
	// Phases aggregates graph.SolveStats.Phases (BFS level graphs,
	// Dijkstra runs, or water-filling/GK phases, per algorithm).
	Phases int
	// Augmentations aggregates augmenting paths / path pushes applied;
	// for MaxConcurrent, GK steps: one shortest-path tree from a source
	// and the fill of that source's pending sinks along it.
	Augmentations int
	// Pops aggregates priority-queue dequeues across every shortest-path
	// search the allocation ran (graph.SolveStats.Pops).
	Pops int
	// Relaxations aggregates inner-loop arc/edge examinations: residual
	// arcs scanned by Dijkstra/BFS, or path-edge scans for the
	// water-filling allocator (graph.SolveStats.Relaxations).
	Relaxations int
}

// addGraph folds one flow solve's counts into the aggregate.
func (s *SolverStats) addGraph(st graph.SolveStats) {
	s.Solves++
	s.Phases += st.Phases
	s.Augmentations += st.Augmentations
	s.Pops += st.Pops
	s.Relaxations += st.Relaxations
}

// Allocation is the output of a TE run.
type Allocation struct {
	// Results holds one entry per input demand, same order.
	Results []DemandResult
	// EdgeFlow is the aggregate flow per edge of the input graph.
	EdgeFlow []float64
	// Throughput is the total shipped volume across demands.
	Throughput float64
	// Cost is sum(flow_e * cost_e) over the input graph.
	Cost float64
	// Solver counts the flow-solver work behind this allocation.
	Solver SolverStats
}

// FlowOn returns the aggregate flow the allocation assigns to edge id,
// or 0 when the id is out of range or the allocation is nil. Flight
// attribution uses this to read fake-edge selections without assuming
// the allocation covers every edge of a later-modified graph.
func (a *Allocation) FlowOn(id graph.EdgeID) float64 {
	if a == nil || id < 0 || int(id) >= len(a.EdgeFlow) {
		return 0
	}
	return a.EdgeFlow[id]
}

// Algorithm is a TE scheme. Allocate must not modify g.
type Algorithm interface {
	Name() string
	Allocate(g *graph.Graph, demands []Demand) (*Allocation, error)
}

// validateAll checks every demand.
func validateAll(g *graph.Graph, demands []Demand) error {
	for i, d := range demands {
		if err := d.Validate(g); err != nil {
			return fmt.Errorf("demand %d: %w", i, err)
		}
	}
	return nil
}

// finish computes the aggregate fields of an allocation.
func finish(g *graph.Graph, a *Allocation) {
	a.Throughput = 0
	for _, r := range a.Results {
		a.Throughput += r.Shipped
	}
	a.Cost = 0
	for id, f := range a.EdgeFlow {
		a.Cost += f * g.Edge(graph.EdgeID(id)).Cost
	}
}

// CheckFeasible verifies an allocation against the graph's capacities
// (within tolerance) and that per-demand path totals match Shipped.
func CheckFeasible(g *graph.Graph, a *Allocation) error {
	if len(a.EdgeFlow) != g.NumEdges() {
		return fmt.Errorf("te: EdgeFlow length %d for %d edges", len(a.EdgeFlow), g.NumEdges())
	}
	for id, f := range a.EdgeFlow {
		if f < -1e-6 {
			return fmt.Errorf("te: negative flow %v on edge %d", f, id)
		}
		if c := g.Edge(graph.EdgeID(id)).Capacity; f > c+1e-6 {
			return fmt.Errorf("te: flow %v exceeds capacity %v on edge %d", f, c, id)
		}
	}
	for i, r := range a.Results {
		if len(r.Paths) == 0 {
			continue
		}
		var sum float64
		for _, pf := range r.Paths {
			if err := pf.Path.Validate(g); err != nil {
				return fmt.Errorf("te: demand %d path invalid: %w", i, err)
			}
			sum += pf.Amount
		}
		if diff := sum - r.Shipped; diff > 1e-6 || diff < -1e-6 {
			return fmt.Errorf("te: demand %d paths sum %v != shipped %v", i, sum, r.Shipped)
		}
	}
	return nil
}
