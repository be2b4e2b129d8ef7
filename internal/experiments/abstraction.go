package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/te"
)

// figure7Topology builds the paper's 4-node example: bidirectional
// 100 Gbps links A-B, C-D, A-C, B-D; the (A,B) and (C,D) adjacencies
// can double their capacity at penalty 100 per unit.
func figure7Topology() (*core.Topology, map[string]graph.NodeID, error) {
	g := graph.New()
	nodes := map[string]graph.NodeID{
		"A": g.AddNode("A"), "B": g.AddNode("B"),
		"C": g.AddNode("C"), "D": g.AddNode("D"),
	}
	top := core.NewTopology(g)
	add := func(u, v graph.NodeID, upgradable bool) error {
		for _, pair := range [][2]graph.NodeID{{u, v}, {v, u}} {
			id := g.AddEdge(graph.Edge{From: pair[0], To: pair[1], Capacity: 100, Weight: 1})
			if upgradable {
				if err := top.SetUpgrade(id, 100, 100); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := add(nodes["A"], nodes["B"], true); err != nil {
		return nil, nil, err
	}
	if err := add(nodes["C"], nodes["D"], true); err != nil {
		return nil, nil, err
	}
	if err := add(nodes["A"], nodes["C"], false); err != nil {
		return nil, nil, err
	}
	if err := add(nodes["B"], nodes["D"], false); err != nil {
		return nil, nil, err
	}
	return top, nodes, nil
}

// Figure7Mode is one panel of Figure 7.
type Figure7Mode struct {
	Name string
	// Upgrades is the number of links whose capacity was raised.
	Upgrades int
	// Shipped is the total traffic delivered (demand is 2×125).
	Shipped float64
	// MeanHops is the amount-weighted average path length.
	MeanHops float64
	// PenaltyCost is the TE-charged cost.
	PenaltyCost float64
}

// Figure7Result compares the penalty modes of the abstraction.
type Figure7Result struct {
	Modes []Figure7Mode
}

// Figure7 reproduces the worked example: demands A→B = C→D = 125 Gbps
// against 100 Gbps links, under (b) the few-increases penalty (capacity
// changes cost, detours are free) and (c) the short-paths mode (unit
// weight on every edge).
func Figure7(o Options) (*Figure7Result, error) {
	defer o.span("figure7")()
	res := &Figure7Result{}
	for _, mode := range []struct {
		name    string
		penalty core.PenaltyFunc
	}{
		{"few increases (7b)", core.PenaltyFromMatrix},
		{"short paths (7c)", core.PenaltyUnitWeights},
	} {
		top, nodes, err := figure7Topology()
		if err != nil {
			return nil, err
		}
		aug, err := core.Augment(top, mode.penalty)
		if err != nil {
			return nil, err
		}
		demands := []te.Demand{
			{Src: nodes["A"], Dst: nodes["B"], Volume: 125},
			{Src: nodes["C"], Dst: nodes["D"], Volume: 125},
		}
		alloc, err := te.Greedy{}.Allocate(aug.Graph, demands)
		if err != nil {
			return nil, err
		}
		dec, err := aug.Translate(graph.FlowResult{Value: alloc.Throughput, EdgeFlow: alloc.EdgeFlow})
		if err != nil {
			return nil, err
		}
		m := Figure7Mode{
			Name:        mode.name,
			Upgrades:    len(dec.Changes),
			Shipped:     dec.Value,
			PenaltyCost: alloc.Cost,
		}
		// Volume-weighted mean hop count: each unit shipped adds one
		// unit of edge flow per hop. Fake edges parallel real ones, so
		// hops on G′ are hops on the physical topology.
		if alloc.Throughput > 0 {
			var edgeVolume float64
			for _, f := range alloc.EdgeFlow {
				edgeVolume += f
			}
			m.MeanHops = edgeVolume / alloc.Throughput
		}
		res.Modes = append(res.Modes, m)
	}
	return res, nil
}

// Table renders Figure 7.
func (r *Figure7Result) Table() *Table {
	t := &Table{
		Title:   "Figure 7: augmentation penalty modes on the 4-node example (demands 2 × 125 Gbps)",
		Columns: []string{"mode", "capacity changes", "shipped Gbps", "mean hops", "TE cost"},
	}
	for _, m := range r.Modes {
		t.Rows = append(t.Rows, []string{
			m.Name, fmt.Sprintf("%d", m.Upgrades), f2(m.Shipped), f2(m.MeanHops), f2(m.PenaltyCost),
		})
	}
	t.Notes = append(t.Notes,
		"7b: penalties make the TE reroute spare capacity and raise as few links as possible",
		"7c: unit weights force one-hop paths, so both links pay for an upgrade")
	return t
}

// Figure8Result demonstrates the unsplittable-flow gadget.
type Figure8Result struct {
	// WidestBefore/WidestAfter is the largest single-path capacity
	// from A to B before and after gadgetizing the link.
	WidestBefore, WidestAfter float64
	// TotalAfter is the max total A→B flow after the gadget (must stay
	// capped at the upgraded capacity).
	TotalAfter float64
	// UpgradeInstructed reports the translation still yields the
	// capacity change.
	UpgradeInstructed bool
}

// Figure8 builds the single upgradable 100→200 Gbps link and shows the
// plain augmentation cannot host an unsplittable 200 Gbps flow while
// the intermediate-vertex gadget can.
func Figure8(o Options) (*Figure8Result, error) {
	defer o.span("figure8")()
	g := graph.New()
	a, b := g.AddNode("A"), g.AddNode("B")
	e := g.AddEdge(graph.Edge{From: a, To: b, Capacity: 100, Weight: 1})
	top := core.NewTopology(g)
	if err := top.SetUpgrade(e, 100, 100); err != nil {
		return nil, err
	}
	aug, err := core.Augment(top, core.PenaltyFromMatrix)
	if err != nil {
		return nil, err
	}
	res := &Figure8Result{WidestBefore: widestSinglePath(aug.Graph, a, b)}
	if _, err := aug.UnsplittableGadget(e); err != nil {
		return nil, err
	}
	res.WidestAfter = widestSinglePath(aug.Graph, a, b)
	total, err := aug.Graph.MaxFlowValue(a, b)
	if err != nil {
		return nil, err
	}
	res.TotalAfter = total
	flow, err := aug.Graph.MinCostMaxFlow(a, b)
	if err != nil {
		return nil, err
	}
	dec, err := aug.Translate(flow)
	if err != nil {
		return nil, err
	}
	res.UpgradeInstructed = len(dec.Changes) == 1 &&
		stats.ApproxInDelta(dec.Changes[0].NewCapacity, 200, stats.DefaultTol)
	return res, nil
}

// widestSinglePath returns the max bottleneck capacity over the k
// shortest paths (k large enough for these tiny graphs).
func widestSinglePath(g *graph.Graph, src, dst graph.NodeID) float64 {
	widest := 0.0
	for _, p := range g.KShortestPaths(src, dst, 8) {
		bn := math.Inf(1)
		for _, id := range p.Edges {
			if c := g.Edge(id).Capacity; c < bn {
				bn = c
			}
		}
		if bn > widest {
			widest = bn
		}
	}
	return widest
}

// Table renders Figure 8.
func (r *Figure8Result) Table() *Table {
	t := &Table{
		Title:   "Figure 8: unsplittable 200 Gbps flow via intermediate vertices",
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"widest single path, plain augmentation", f2(r.WidestBefore)},
			{"widest single path, gadget", f2(r.WidestAfter)},
			{"total A→B capacity after gadget", f2(r.TotalAfter)},
			{"upgrade still instructed by translation", fmt.Sprintf("%v", r.UpgradeInstructed)},
		},
	}
	t.Notes = append(t.Notes, "the gadget serializes base+extra so one path carries 200 Gbps while total stays capped at 200")
	return t
}

// Theorem1Result summarizes the randomized equivalence check.
type Theorem1Result struct {
	Trials, Holds int
	// MeanBase/MeanFull are average max-flow values before/after
	// upgrades across trials.
	MeanBase, MeanFull float64
	// Penalties lists the penalty functions exercised per trial.
	Penalties []string
}

// Theorem1 verifies min-cost max-flow on G′ ≡ max-flow on G with
// dynamic capacities over o.Trials random topologies × 3 penalty
// functions.
func Theorem1(o Options) (*Theorem1Result, error) {
	defer o.span("theorem1")()
	r := rng.New(o.Seed ^ 0x7e0)
	penalties := []struct {
		name string
		fn   core.PenaltyFunc
	}{
		{"matrix", core.PenaltyFromMatrix},
		{"traffic", core.PenaltyTrafficProportional},
		{"unit", core.PenaltyUnitWeights},
	}
	res := &Theorem1Result{}
	for _, p := range penalties {
		res.Penalties = append(res.Penalties, p.name)
	}
	for trial := 0; trial < o.Trials; trial++ {
		g := graph.New()
		n := 6 + r.Intn(10)
		g.AddNodes(n)
		top := core.NewTopology(g)
		for i := 0; i < n*3; i++ {
			u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
			if u == v {
				continue
			}
			id := g.AddEdge(graph.Edge{From: u, To: v, Capacity: r.Uniform(50, 150), Weight: 1})
			if r.Bernoulli(0.6) {
				if err := top.SetUpgrade(id, r.Uniform(25, 100), r.Uniform(1, 100)); err != nil {
					return nil, err
				}
			}
			if err := top.SetTraffic(id, r.Uniform(0, 100)); err != nil {
				return nil, err
			}
		}
		src, dst := graph.NodeID(0), graph.NodeID(n-1)
		for _, p := range penalties {
			rep, err := core.CheckTheorem1(top, src, dst, p.fn)
			if err != nil {
				return nil, err
			}
			res.Trials++
			if rep.Holds {
				res.Holds++
			}
			res.MeanBase += rep.BaseValue
			res.MeanFull += rep.FullValue
		}
	}
	if res.Trials > 0 {
		res.MeanBase /= float64(res.Trials)
		res.MeanFull /= float64(res.Trials)
	}
	return res, nil
}

// Table renders the Theorem 1 check.
func (r *Theorem1Result) Table() *Table {
	t := &Table{
		Title:   "Theorem 1: min-cost max-flow on G' == max-flow on G with dynamic capacities",
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"instances checked", fmt.Sprintf("%d (penalties: %v)", r.Trials, r.Penalties)},
			{"equivalence holds", fmt.Sprintf("%d / %d", r.Holds, r.Trials)},
			{"mean max-flow, current capacities", f2(r.MeanBase)},
			{"mean max-flow, dynamic capacities", f2(r.MeanFull)},
		},
	}
	return t
}
