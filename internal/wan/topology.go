// Package wan simulates a wide-area optical backbone: IP topology over
// fibers carrying multiple wavelengths, gravity-model traffic, SNR
// evolution, and the round-by-round comparison of today's static
// 100 Gbps operation against the paper's dynamic-capacity operation
// driven through the core package's graph abstraction.
package wan

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Network is an IP backbone over optical fibers. Every *adjacency*
// (pair of directed edges) rides one fiber; each fiber carries
// Wavelengths optical channels; each wavelength contributes its
// configured capacity to the IP link (the paper assumes a one-to-one
// wavelength ↔ IP link mapping — aggregating W wavelengths into one IP
// adjacency is the bundled equivalent and keeps the TE graph small).
type Network struct {
	// G is the IP topology. Edge capacities are set per simulation
	// round; weights are IGP metrics (≈ distance).
	G *graph.Graph
	// FiberOf maps each directed edge to its fiber index (both
	// directions of an adjacency share a fiber).
	FiberOf []int
	// NumFibers counts distinct fibers.
	NumFibers int
	// Wavelengths is the number of channels per fiber.
	Wavelengths int
	// NodeWeights drive the gravity traffic model (population-like).
	NodeWeights []float64
}

// Validate checks internal consistency.
func (n *Network) Validate() error {
	if n.G == nil {
		return fmt.Errorf("wan: nil graph")
	}
	if len(n.FiberOf) != n.G.NumEdges() {
		return fmt.Errorf("wan: FiberOf has %d entries for %d edges", len(n.FiberOf), n.G.NumEdges())
	}
	for _, f := range n.FiberOf {
		if f < 0 || f >= n.NumFibers {
			return fmt.Errorf("wan: fiber index %d out of range", f)
		}
	}
	if n.Wavelengths <= 0 {
		return fmt.Errorf("wan: need >= 1 wavelength per fiber")
	}
	if len(n.NodeWeights) != n.G.NumNodes() {
		return fmt.Errorf("wan: NodeWeights has %d entries for %d nodes", len(n.NodeWeights), n.G.NumNodes())
	}
	return nil
}

// builder accumulates bidirectional adjacencies.
type builder struct {
	g       *graph.Graph
	fiberOf []int
	fibers  int
}

// link adds a bidirectional adjacency on a fresh fiber with the given
// IGP weight. Capacity is set later by the simulation.
func (b *builder) link(u, v graph.NodeID, weight float64) {
	f := b.fibers
	b.fibers++
	b.g.AddEdge(graph.Edge{From: u, To: v, Weight: weight})
	b.fiberOf = append(b.fiberOf, f)
	b.g.AddEdge(graph.Edge{From: v, To: u, Weight: weight})
	b.fiberOf = append(b.fiberOf, f)
}

// Abilene returns the 11-node Abilene research backbone (the classic
// US WAN evaluation topology) with population-like node weights.
// Weights on links are rough great-circle distances in hundreds of km.
func Abilene(wavelengths int) *Network {
	g := graph.New()
	sea := g.AddNode("Seattle")
	sun := g.AddNode("Sunnyvale")
	lax := g.AddNode("LosAngeles")
	den := g.AddNode("Denver")
	kan := g.AddNode("KansasCity")
	hou := g.AddNode("Houston")
	chi := g.AddNode("Chicago")
	ind := g.AddNode("Indianapolis")
	atl := g.AddNode("Atlanta")
	was := g.AddNode("Washington")
	nyc := g.AddNode("NewYork")

	b := &builder{g: g}
	b.link(sea, sun, 11)
	b.link(sea, den, 16)
	b.link(sun, lax, 5)
	b.link(sun, den, 15)
	b.link(lax, hou, 22)
	b.link(den, kan, 9)
	b.link(kan, hou, 10)
	b.link(kan, ind, 7)
	b.link(hou, atl, 11)
	b.link(chi, ind, 3)
	b.link(chi, nyc, 11)
	b.link(ind, atl, 7)
	b.link(atl, was, 9)
	b.link(was, nyc, 3)

	return &Network{
		G: g, FiberOf: b.fiberOf, NumFibers: b.fibers,
		Wavelengths: wavelengths,
		NodeWeights: []float64{
			4, 8, 13, 3, 2, 7, 9, 2, 6, 6, 20, // rough metro populations
		},
	}
}

// USBackbone returns a larger 25-node synthetic US carrier topology
// with ~2.7 average degree, for backbone-scale experiments.
func USBackbone(wavelengths int) *Network {
	g := graph.New()
	names := []string{
		"Seattle", "Portland", "Sunnyvale", "LosAngeles", "SanDiego",
		"SaltLake", "Phoenix", "Denver", "Albuquerque", "ElPaso",
		"KansasCity", "Dallas", "Houston", "Minneapolis", "Chicago",
		"StLouis", "Nashville", "Atlanta", "Miami", "Indianapolis",
		"Cleveland", "Pittsburgh", "Washington", "Philadelphia", "NewYork",
	}
	ids := make([]graph.NodeID, len(names))
	for i, n := range names {
		ids[i] = g.AddNode(n)
	}
	b := &builder{g: g}
	type adj struct {
		u, v int
		w    float64
	}
	adjs := []adj{
		{0, 1, 3}, {0, 5, 11}, {1, 2, 9}, {2, 3, 5}, {3, 4, 2},
		{3, 6, 6}, {4, 6, 5}, {2, 5, 10}, {5, 7, 6}, {6, 8, 7},
		{7, 8, 6}, {8, 9, 4}, {9, 11, 9}, {7, 10, 9}, {10, 11, 7},
		{11, 12, 4}, {12, 17, 11}, {10, 15, 4}, {13, 14, 6}, {0, 13, 22},
		{14, 15, 4}, {14, 19, 3}, {15, 16, 4}, {16, 17, 3}, {17, 18, 10},
		{19, 20, 4}, {20, 21, 2}, {21, 22, 3}, {22, 23, 2}, {23, 24, 1},
		{14, 20, 5}, {17, 22, 9}, {24, 20, 7}, {12, 18, 16}, {13, 7, 11},
	}
	for _, a := range adjs {
		b.link(ids[a.u], ids[a.v], a.w)
	}
	weights := []float64{
		4, 2.5, 8, 13, 3.3, 1.2, 5, 3, 0.9, 0.8,
		2.1, 7.6, 7.1, 3.7, 9.5, 2.8, 2, 6, 6.1, 2,
		2.1, 2.3, 6.2, 6.1, 20,
	}
	return &Network{
		G: g, FiberOf: b.fiberOf, NumFibers: b.fibers,
		Wavelengths: wavelengths, NodeWeights: weights,
	}
}

// RandomBackbone generates a connected random backbone: a ring (for
// 2-connectivity) plus random chords, with log-normal node weights.
func RandomBackbone(nodes, chords, wavelengths int, seed uint64) (*Network, error) {
	if nodes < 3 || nodes > maxContinentalNodes {
		return nil, fmt.Errorf("wan: random backbone needs 3..%d nodes, got %d", maxContinentalNodes, nodes)
	}
	if chords < 0 {
		return nil, fmt.Errorf("wan: negative chord count")
	}
	// Chords join node pairs the ring does not; asking for more than
	// there are would never finish drawing them.
	if free := nodes*(nodes-1)/2 - nodes; chords > free {
		return nil, fmt.Errorf("wan: %d chords for %d nodes, at most %d fit beside the ring", chords, nodes, free)
	}
	r := rng.New(seed)
	g := graph.New()
	for i := 0; i < nodes; i++ {
		g.AddNode(fmt.Sprintf("pop%02d", i))
	}
	b := &builder{g: g}
	seen := make(map[[2]int]bool)
	addAdj := func(u, v int) bool {
		if u == v {
			return false
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			return false
		}
		seen[[2]int{u, v}] = true
		b.link(graph.NodeID(u), graph.NodeID(v), r.Uniform(2, 20))
		return true
	}
	for i := 0; i < nodes; i++ {
		addAdj(i, (i+1)%nodes)
	}
	for added := 0; added < chords; {
		if addAdj(r.Intn(nodes), r.Intn(nodes)) {
			added++
		}
	}
	weights := make([]float64, nodes)
	for i := range weights {
		weights[i] = r.LogNormal(1, 0.8)
	}
	return &Network{
		G: g, FiberOf: b.fiberOf, NumFibers: b.fibers,
		Wavelengths: wavelengths, NodeWeights: weights,
	}, nil
}
