package graph

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// refDecomposeFlow is Graph.DecomposeFlow as it stood before Decomposer,
// kept verbatim as the test oracle: fresh visited/predecessor/queue
// slices per iteration, the path grown by append. The decomposer must
// return exactly its paths — BFS order, amounts, nil-ness.
func (g *Graph) refDecomposeFlow(src, dst NodeID, edgeFlow []float64) ([]PathFlow, error) {
	if len(edgeFlow) != g.NumEdges() {
		return nil, fmt.Errorf("graph: edgeFlow has %d entries for %d edges", len(edgeFlow), g.NumEdges())
	}
	rem := append([]float64(nil), edgeFlow...)
	var out []PathFlow
	for {
		// Walk greedily from src along positive-flow edges.
		prevEdge := make([]EdgeID, g.NumNodes())
		for i := range prevEdge {
			prevEdge[i] = NoEdge
		}
		visited := make([]bool, g.NumNodes())
		visited[src] = true
		queue := []NodeID{src}
		found := false
		for len(queue) > 0 && !found {
			u := queue[0]
			queue = queue[1:]
			for _, id := range g.Out(u) {
				if rem[id] <= Eps {
					continue
				}
				v := g.edges[id].To
				if visited[v] {
					continue
				}
				visited[v] = true
				prevEdge[v] = id
				if v == dst {
					found = true
					break
				}
				queue = append(queue, v)
			}
		}
		if !found {
			break
		}
		p := g.reconstruct(src, dst, prevEdge)
		amount := math.Inf(1)
		for _, id := range p.Edges {
			if rem[id] < amount {
				amount = rem[id]
			}
		}
		if amount <= Eps {
			break
		}
		for _, id := range p.Edges {
			rem[id] -= amount
		}
		out = append(out, PathFlow{Path: p, Amount: amount})
	}
	return out, nil
}

// decomposeCase draws a flow to decompose on g and the endpoints to
// decompose it between. Most are what the TE layer produces — a
// min-cost flow, sometimes with a circulation laid on top so the support
// is cyclic — and the rest are arbitrary non-negative edge values that
// conserve nothing, an all-zero flow, or a sink the flow never reaches.
func decomposeCase(t *testing.T, r *rng.Source, g *Graph) (src, dst NodeID, flow []float64) {
	n := g.NumNodes()
	src, dst = NodeID(r.Intn(n)), NodeID(r.Intn(n))
	flow = make([]float64, g.NumEdges())
	switch k := r.Intn(10); {
	case k == 0: // all-zero
	case k <= 2: // arbitrary support
		for id := range flow {
			if r.Bernoulli(0.6) {
				flow[id] = float64(r.Intn(5)) + r.Float64()
			}
		}
	default:
		res, err := g.MinCostFlow(src, dst, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		copy(flow, res.EdgeFlow)
		if r.Bernoulli(0.5) { // lay flow on every edge of some cycle-rich region
			for id := range flow {
				if r.Bernoulli(0.3) {
					flow[id] += 0.5
				}
			}
		}
		if r.Bernoulli(0.15) { // ask for a sink the flow was not sent to
			dst = NodeID(r.Intn(n))
		}
	}
	return src, dst, flow
}

// TestDecomposerMatchesReference: one Decomposer reused across 300
// random flows on graphs of varying size returns, for each, paths
// reflect.DeepEqual to the allocating decomposition it replaced, leaves
// the input untouched, and agrees with the one-shot Graph.DecomposeFlow.
func TestDecomposerMatchesReference(t *testing.T) {
	r := rng.New(0xdec0)
	var d Decomposer
	nonEmpty, cyclic := 0, 0
	for trial := 0; trial < 300; trial++ {
		g := tieHeavyGraph(r) // 4..17 nodes: the scratch both grows and is reused oversized
		for id := range g.edges {
			g.edges[id].Cost = g.edges[id].Weight
		}
		src, dst, flow := decomposeCase(t, r, g)
		input := append([]float64(nil), flow...)
		want, err := g.refDecomposeFlow(src, dst, flow)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Decompose(g, src, dst, flow)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Decompose(%d,%d)\n got %+v\nwant %+v", trial, src, dst, got, want)
		}
		if oneShot, _ := g.DecomposeFlow(src, dst, flow); !reflect.DeepEqual(oneShot, want) {
			t.Fatalf("trial %d: one-shot DecomposeFlow differs from the reference", trial)
		}
		if !reflect.DeepEqual(flow, input) {
			t.Fatalf("trial %d: input flow modified", trial)
		}
		if len(got) > 0 {
			nonEmpty++
		}
		var routed, support float64
		for _, pf := range got {
			routed += pf.Amount * float64(pf.Path.Len())
		}
		for _, f := range flow {
			support += f
		}
		if routed+1e-6 < support {
			cyclic++ // flow left over on edges: cycles or dead ends were dropped
		}
	}
	if nonEmpty < 150 || cyclic < 50 {
		t.Fatalf("generator too tame: %d non-empty decompositions, %d with dropped flow", nonEmpty, cyclic)
	}
}

// TestDecomposerEpochWrap: a visited stamp from before the uint32 wrap
// must not hide a node from a BFS after it.
func TestDecomposerEpochWrap(t *testing.T) {
	r := rng.New(0xdec1)
	g := tieHeavyGraph(r)
	var d Decomposer
	for trial := 0; trial < 20; trial++ {
		if trial == 5 {
			d.epoch = math.MaxUint32 - 2
		}
		src, dst, flow := decomposeCase(t, r, g)
		want, _ := g.refDecomposeFlow(src, dst, flow)
		got, err := d.Decompose(g, src, dst, flow)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Decompose(%d,%d)\n got %+v\nwant %+v", trial, src, dst, got, want)
		}
	}
	if d.epoch > 1<<20 {
		t.Fatalf("epoch = %d, want a small post-wrap value", d.epoch)
	}
}
