// Package graph provides the directed-multigraph substrate and the flow
// algorithms the traffic-engineering layer is built on: BFS/Dijkstra
// shortest paths, Yen's k-shortest paths, Dinic max-flow, and
// successive-shortest-path min-cost max-flow.
//
// The paper's abstraction (§4) requires *parallel edges*: a fake link is
// added alongside each upgradable physical link, so everything here is a
// multigraph keyed by EdgeID rather than (from, to) pairs.
package graph

import (
	"fmt"
	"math"
)

// NodeID identifies a vertex. IDs are dense: 0..NumNodes()-1.
type NodeID int

// EdgeID identifies a directed edge. IDs are dense: 0..NumEdges()-1.
type EdgeID int

// Invalid sentinel IDs.
const (
	NoNode NodeID = -1
	NoEdge EdgeID = -1
)

// Eps is the tolerance used by the flow algorithms when comparing
// float64 capacities and flows.
const Eps = 1e-9

// Edge is one directed edge of the multigraph.
type Edge struct {
	ID       EdgeID
	From, To NodeID
	// Capacity is the maximum flow the edge can carry (Gbps in the WAN
	// setting).
	Capacity float64
	// Cost is the per-unit-of-flow penalty used by min-cost max-flow.
	// The paper's abstraction encodes the capacity-change penalty here.
	Cost float64
	// Weight is the routing metric (IGP weight / hop length) used by
	// the shortest-path and k-shortest-path routines.
	Weight float64
	// Label is an optional annotation. The core package tags fake edges
	// here.
	Label string
}

// Graph is a directed multigraph. The zero value is an empty graph
// ready to use.
type Graph struct {
	names []string
	edges []Edge
	out   [][]EdgeID
	in    [][]EdgeID
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddNode adds a vertex with the given display name and returns its ID.
func (g *Graph) AddNode(name string) NodeID {
	id := NodeID(len(g.names))
	g.names = append(g.names, name)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// AddNodes adds n anonymous vertices and returns the ID of the first.
func (g *Graph) AddNodes(n int) NodeID {
	first := NodeID(len(g.names))
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", int(first)+i))
	}
	return first
}

// AddEdge adds a directed edge and returns its ID. It panics if either
// endpoint does not exist or the capacity is negative: both indicate a
// construction bug, not a runtime condition.
func (g *Graph) AddEdge(e Edge) EdgeID {
	if !g.HasNode(e.From) || !g.HasNode(e.To) {
		panic(fmt.Sprintf("graph: AddEdge with unknown endpoint %d->%d (have %d nodes)", e.From, e.To, len(g.names)))
	}
	if e.Capacity < 0 {
		panic(fmt.Sprintf("graph: negative capacity %v", e.Capacity))
	}
	if math.IsNaN(e.Capacity) || math.IsNaN(e.Cost) || math.IsNaN(e.Weight) {
		panic("graph: NaN edge attribute")
	}
	e.ID = EdgeID(len(g.edges))
	g.edges = append(g.edges, e)
	g.out[e.From] = append(g.out[e.From], e.ID)
	g.in[e.To] = append(g.in[e.To], e.ID)
	return e.ID
}

// HasNode reports whether id is a valid node.
func (g *Graph) HasNode(id NodeID) bool { return id >= 0 && int(id) < len(g.names) }

// HasEdge reports whether id is a valid edge.
func (g *Graph) HasEdge(id EdgeID) bool { return id >= 0 && int(id) < len(g.edges) }

// NumNodes returns the vertex count.
func (g *Graph) NumNodes() int { return len(g.names) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NodeName returns the display name of a node.
func (g *Graph) NodeName(id NodeID) string {
	if !g.HasNode(id) {
		return fmt.Sprintf("invalid(%d)", int(id))
	}
	return g.names[id]
}

// Edge returns a copy of the edge with the given ID. It panics on an
// invalid ID.
func (g *Graph) Edge(id EdgeID) Edge {
	if !g.HasEdge(id) {
		panic(fmt.Sprintf("graph: invalid edge id %d", int(id)))
	}
	return g.edges[id]
}

// SetCapacity updates an edge's capacity in place.
func (g *Graph) SetCapacity(id EdgeID, c float64) {
	if !g.HasEdge(id) {
		panic(fmt.Sprintf("graph: invalid edge id %d", int(id)))
	}
	if c < 0 || math.IsNaN(c) {
		panic(fmt.Sprintf("graph: invalid capacity %v", c))
	}
	g.edges[id].Capacity = c
}

// SetCost updates an edge's per-unit cost in place.
func (g *Graph) SetCost(id EdgeID, c float64) {
	if !g.HasEdge(id) {
		panic(fmt.Sprintf("graph: invalid edge id %d", int(id)))
	}
	if math.IsNaN(c) {
		panic("graph: NaN cost")
	}
	g.edges[id].Cost = c
}

// Out returns the IDs of edges leaving node n. The returned slice must
// not be modified.
func (g *Graph) Out(n NodeID) []EdgeID { return g.out[n] }

// In returns the IDs of edges entering node n. The returned slice must
// not be modified.
func (g *Graph) In(n NodeID) []EdgeID { return g.in[n] }

// Edges returns a copy of all edges.
func (g *Graph) Edges() []Edge { return append([]Edge(nil), g.edges...) }

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		names: append([]string(nil), g.names...),
		edges: append([]Edge(nil), g.edges...),
		out:   make([][]EdgeID, len(g.out)),
		in:    make([][]EdgeID, len(g.in)),
	}
	for i := range g.out {
		c.out[i] = append([]EdgeID(nil), g.out[i]...)
	}
	for i := range g.in {
		c.in[i] = append([]EdgeID(nil), g.in[i]...)
	}
	return c
}

// TotalCapacity sums capacity over all edges.
func (g *Graph) TotalCapacity() float64 {
	var t float64
	for _, e := range g.edges {
		t += e.Capacity
	}
	return t
}

// Path is a sequence of edge IDs forming a walk. Nodes visits one more
// element than Edges.
type Path struct {
	Edges []EdgeID
	Nodes []NodeID
}

// Len returns the number of edges (hops).
func (p Path) Len() int { return len(p.Edges) }

// WeightOn returns the total Weight of the path's edges on g.
func (p Path) WeightOn(g *Graph) float64 {
	var w float64
	for _, id := range p.Edges {
		w += g.Edge(id).Weight
	}
	return w
}

// Validate checks that the path is a connected walk on g.
func (p Path) Validate(g *Graph) error {
	if len(p.Nodes) != len(p.Edges)+1 {
		return fmt.Errorf("graph: path has %d nodes for %d edges", len(p.Nodes), len(p.Edges))
	}
	for i, id := range p.Edges {
		if !g.HasEdge(id) {
			return fmt.Errorf("graph: path references unknown edge %d", int(id))
		}
		e := g.Edge(id)
		if e.From != p.Nodes[i] || e.To != p.Nodes[i+1] {
			return fmt.Errorf("graph: edge %d (%d->%d) does not connect path nodes %d->%d",
				int(id), int(e.From), int(e.To), int(p.Nodes[i]), int(p.Nodes[i+1]))
		}
	}
	return nil
}
