package graph

import "math"

// DisjointPair is a pair of edge-disjoint paths between the same
// endpoints, as used for WAN protection routing: when the working path
// fails (a fiber cut takes a link dark), traffic switches to the
// protection path.
type DisjointPair struct {
	Working, Protection Path
	// TotalWeight is the summed Weight of both paths (Suurballe
	// minimizes this).
	TotalWeight float64
}

// EdgeDisjointShortestPair computes the minimum-total-weight pair of
// edge-disjoint paths from src to dst (Suurballe/Bhandari). It returns
// ok = false when no two edge-disjoint paths exist. Zero-capacity edges
// are skipped, weights must be non-negative.
//
// Implementation: Bhandari's variant — find a shortest path, reverse
// and negate its edges, find a second shortest path with Bellman-Ford
// (negative arcs appear only on the reversed first path), then remove
// the arcs used in both directions and decompose the union into two
// paths.
func (g *Graph) EdgeDisjointShortestPair(src, dst NodeID) (DisjointPair, bool) {
	if !g.HasNode(src) || !g.HasNode(dst) || src == dst {
		return DisjointPair{}, false
	}
	first, _, ok := g.ShortestPathDijkstra(src, dst)
	if !ok {
		return DisjointPair{}, false
	}
	onFirst := make(map[EdgeID]bool, len(first.Edges))
	for _, id := range first.Edges {
		onFirst[id] = true
	}

	// Build the residual view: edges on the first path are replaced by
	// reverse arcs with negated weight; all other positive-capacity
	// edges keep their weight. We run Bellman-Ford over this implicit
	// graph.
	type arc struct {
		from, to NodeID
		weight   float64
		id       EdgeID // original edge
		reversed bool
	}
	var arcs []arc
	for _, e := range g.edges {
		if e.Capacity <= Eps {
			continue
		}
		if onFirst[e.ID] {
			arcs = append(arcs, arc{from: e.To, to: e.From, weight: -e.Weight, id: e.ID, reversed: true})
		} else {
			arcs = append(arcs, arc{from: e.From, to: e.To, weight: e.Weight, id: e.ID})
		}
	}
	n := g.NumNodes()
	dist := make([]float64, n)
	prev := make([]int, n) // arc index
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for ai, a := range arcs {
			if math.IsInf(dist[a.from], 1) {
				continue
			}
			if nd := dist[a.from] + a.weight; nd+Eps < dist[a.to] {
				dist[a.to] = nd
				prev[a.to] = ai
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	if math.IsInf(dist[dst], 1) {
		return DisjointPair{}, false
	}
	// Collect the second path's arcs.
	usedReverse := make(map[EdgeID]bool)
	secondEdges := make(map[EdgeID]bool)
	for at := dst; at != src; {
		ai := prev[at]
		if ai < 0 {
			return DisjointPair{}, false
		}
		a := arcs[ai]
		if a.reversed {
			usedReverse[a.id] = true
		} else {
			secondEdges[a.id] = true
		}
		at = a.from
	}

	// Union minus cancelled arcs: first-path edges not traversed in
	// reverse, plus second-path forward edges.
	remaining := make(map[EdgeID]bool)
	for id := range onFirst {
		if !usedReverse[id] {
			remaining[id] = true
		}
	}
	for id := range secondEdges {
		remaining[id] = true
	}

	// Split the remaining edge set into two src→dst paths by
	// walking out-edges greedily.
	out := make(map[NodeID][]EdgeID)
	for id := range remaining {
		e := g.edges[id]
		out[e.From] = append(out[e.From], id)
	}
	var paths []Path
	for k := 0; k < 2; k++ {
		p := Path{Nodes: []NodeID{src}}
		at := src
		for at != dst {
			avail := out[at]
			if len(avail) == 0 {
				return DisjointPair{}, false // malformed union
			}
			id := avail[len(avail)-1]
			out[at] = avail[:len(avail)-1]
			p.Edges = append(p.Edges, id)
			at = g.edges[id].To
			p.Nodes = append(p.Nodes, at)
			if len(p.Edges) > len(remaining) {
				return DisjointPair{}, false // cycle guard
			}
		}
		paths = append(paths, p)
	}

	pair := DisjointPair{Working: paths[0], Protection: paths[1]}
	pair.TotalWeight = pair.Working.WeightOn(g) + pair.Protection.WeightOn(g)
	// Keep the lighter path as working.
	if pair.Protection.WeightOn(g) < pair.Working.WeightOn(g) {
		pair.Working, pair.Protection = pair.Protection, pair.Working
	}
	return pair, true
}
