// Package te implements traffic-engineering algorithms behind a single
// interface. Crucially for the paper's argument (§3.2, §4), every
// algorithm here treats its input graph as opaque: it neither knows nor
// cares whether an edge is physical or one of the abstraction's fake
// links. Running any of these on an augmented topology and translating
// the result is exactly how the paper keeps "the IP layer algorithms
// unchanged". An allocation is per-demand Shipped plus aggregate
// EdgeFlow and nothing else — no paths: translation reads only the flow
// on each edge of the augmented graph.
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
//     grouped by source on graph.PathSolver's shortest-path trees,
//     whose paths a source keeps while they stay within (1+ε) of them.
package te

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Demand is one commodity: Volume units wanted from Src to Dst.
type Demand struct {
	Src, Dst graph.NodeID
	Volume   float64
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
}

// SolverStats aggregates flow-solver work across one allocation, for
// the observability layer (plain integers; no overhead when unread).
type SolverStats struct {
	// Solves counts individual solver invocations (typically one per
	// demand for the sequential allocators). A demand Greedy answers from
	// its unreachable-sink memo counts one solve and no phase.
	Solves int
	// SolveStats sums the solves' graph counts: Phases (BFS level
	// graphs, Dijkstra runs, or water-filling/GK phases, per
	// algorithm); Augmentations (augmenting paths / path pushes
	// applied; for MaxConcurrent, GK steps: one fill of a source's
	// pending sinks, along the paths of a shortest-path tree the step
	// grew or along the paths they kept from an earlier one); Pops
	// (priority-queue dequeues across every shortest-path search); and
	// Relaxations (residual arcs scanned by Dijkstra/BFS, or path-edge
	// scans for the water-filling allocator).
	graph.SolveStats
}

// addGraph folds one flow solve's counts into the aggregate.
func (s *SolverStats) addGraph(st graph.SolveStats) {
	s.Solves++
	s.SolveStats.Add(st)
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
// and flow conservation, within tolerance: at every node the net
// outflow of EdgeFlow must equal the Shipped of the demands sourced
// there minus that of the demands sunk there.
func CheckFeasible(g *graph.Graph, a *Allocation) error {
	if len(a.EdgeFlow) != g.NumEdges() {
		return fmt.Errorf("te: EdgeFlow length %d for %d edges", len(a.EdgeFlow), g.NumEdges())
	}
	net := make([]float64, g.NumNodes())     // net outflow minus net supply
	through := make([]float64, g.NumNodes()) // flow in plus flow out
	for id, f := range a.EdgeFlow {
		if f < -1e-6 {
			return fmt.Errorf("te: negative flow %v on edge %d", f, id)
		}
		e := g.Edge(graph.EdgeID(id))
		if f > e.Capacity+1e-6 {
			return fmt.Errorf("te: flow %v exceeds capacity %v on edge %d", f, e.Capacity, id)
		}
		net[e.From] += f
		net[e.To] -= f
		through[e.From] += f
		through[e.To] += f
	}
	for i, r := range a.Results {
		if err := r.Demand.Validate(g); err != nil {
			return fmt.Errorf("te: demand %d: %w", i, err)
		}
		net[r.Demand.Src] -= r.Shipped
		net[r.Demand.Dst] += r.Shipped
	}
	for v, d := range net {
		if math.Abs(d) > 1e-6*max(1, through[v]) {
			return fmt.Errorf("te: flow not conserved at node %d: net outflow misses the shipped volume by %v", v, d)
		}
	}
	return nil
}
