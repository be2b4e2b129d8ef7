package core

import (
	"fmt"

	"repro/internal/graph"
)

// FakeLabel marks fake edges in the augmented graph so dumps and
// debuggers can tell them apart. Translation does not depend on it.
const FakeLabel = "fake"

// Augmentation is the output of Algorithm 1: the augmented topology G′
// plus the bookkeeping needed to translate TE output back into capacity
// decisions (step 3 of the construction under Theorem 1). It is the
// compact layout of an Augmenter, with the fake-edge table also exposed
// as maps.
type Augmentation struct {
	// Graph is G′: every real edge of G (same IDs, penalties applied)
	// followed by one fake edge per upgradable link.
	Graph *graph.Graph
	// FakeOf maps a fake edge in G′ to the physical edge it upgrades.
	FakeOf map[graph.EdgeID]graph.EdgeID
	// FakeFor is the inverse: physical edge → its fake edge in G′.
	FakeFor map[graph.EdgeID]graph.EdgeID
	// Topology is the input it was built from.
	Topology *Topology
	// aug owns Graph; FakeOf and FakeFor mirror its fake table.
	aug *Augmenter
}

// Augment implements Algorithm 1 ("Graph augmentation procedure"):
//
//	foreach e = (v,w) ∈ E:
//	    P′(e) = 0                       // or another penalty function
//	    if U[v,w] > 0:
//	        E′ = E′ ∪ {(v,w, U[v,w], P[v,w])}
//	return G′⟨V, E′ ∪ E, P′⟩
//
// Real edges keep their IDs (the fake edges are appended after them),
// so a flow result on G′ indexes real edges directly.
func Augment(t *Topology, penalty PenaltyFunc) (*Augmentation, error) {
	aug, err := newAugmenter(t, penalty, false)
	if err != nil {
		return nil, err
	}
	a := &Augmentation{
		Graph:    aug.G,
		FakeOf:   make(map[graph.EdgeID]graph.EdgeID),
		FakeFor:  make(map[graph.EdgeID]graph.EdgeID),
		Topology: t,
		aug:      aug,
	}
	for i, fakeID := range aug.fake {
		if fakeID != graph.NoEdge {
			a.FakeOf[fakeID] = graph.EdgeID(i)
			a.FakeFor[graph.EdgeID(i)] = fakeID
		}
	}
	return a, nil
}

// RemoveInfeasible drops the fake edges of physical links whose SNR no
// longer supports their upgrade (§4.2: "Our proposed abstraction handles
// such events by removing the corresponding fake edges from the
// augmented topology"). keep reports whether a physical edge's upgrade
// is still feasible. The augmentation is modified in place by zeroing
// the fake edge's capacity — TE controllers treat a removed edge and a
// zero-capacity edge identically, and IDs stay stable.
func (a *Augmentation) RemoveInfeasible(keep func(realEdge graph.EdgeID) bool) int {
	removed := 0
	for i, fakeID := range a.aug.fake {
		if fakeID != graph.NoEdge && !keep(graph.EdgeID(i)) && a.Graph.Edge(fakeID).Capacity > 0 {
			a.Graph.SetCapacity(fakeID, 0)
			removed++
		}
	}
	return removed
}

// UnsplittableGadget rewrites one upgradable physical link using the
// intermediate-vertex construction of Figure 8, so that a single
// unsplittable flow of (base + extra) capacity can traverse it. The
// plain augmentation offers two parallel edges (base and extra), which
// an unsplittable flow cannot combine; the gadget serializes them:
//
//	A ──(B+U, 0)──> A′ ──(B, 0)──┬──> B′ ──(B+U, 0)──> B
//	                └─(B+U, P)───┘
//
// where B is the base capacity, U the extra, and P the penalty. The
// outer edges cap the total at B+U while the inner fake edge alone can
// carry a full B+U unsplittable flow once the upgrade is paid for.
//
// The original edge's capacity is set to 0 (it is superseded); new
// nodes and edges are appended. Returns the inner fake edge's ID, whose
// flow signals the upgrade in translation.
func (a *Augmentation) UnsplittableGadget(realID graph.EdgeID) (graph.EdgeID, error) {
	up, ok := a.Topology.Upgrades[realID]
	if !ok {
		return graph.NoEdge, fmt.Errorf("core: edge %d has no upgrade to gadgetize", int(realID))
	}
	oldFake, hasFake := a.FakeFor[realID]
	if !hasFake {
		return graph.NoEdge, fmt.Errorf("core: edge %d has no fake edge", int(realID))
	}
	aug := a.aug
	if aug.mid != nil && aug.mid[realID] != graph.NoEdge {
		return graph.NoEdge, fmt.Errorf("core: edge %d already gadgetized", int(realID))
	}
	e := a.Topology.G.Edge(realID)
	base := e.Capacity
	full := base + up.ExtraCapacity

	aPrime := a.Graph.AddNode(a.Graph.NodeName(e.From) + "'")
	bPrime := a.Graph.AddNode(a.Graph.NodeName(e.To) + "'")

	// Disable the plain real and fake parallel edges.
	a.Graph.SetCapacity(realID, 0)
	a.Graph.SetCapacity(oldFake, 0)
	delete(a.FakeOf, oldFake)

	a.Graph.AddEdge(graph.Edge{From: e.From, To: aPrime, Capacity: full, Weight: 0})
	mid := a.Graph.AddEdge(graph.Edge{From: aPrime, To: bPrime, Capacity: base, Weight: e.Weight})
	inner := a.Graph.AddEdge(graph.Edge{
		From: aPrime, To: bPrime, Capacity: full,
		Cost: a.Graph.Edge(oldFake).Cost, Weight: e.Weight, Label: FakeLabel,
	})
	a.Graph.AddEdge(graph.Edge{From: bPrime, To: e.To, Capacity: full, Weight: 0})

	if aug.mid == nil {
		aug.mid = make([]graph.EdgeID, len(aug.fake))
		for i := range aug.mid {
			aug.mid[i] = graph.NoEdge
		}
	}
	aug.fake[realID] = inner
	aug.mid[realID] = mid
	a.FakeOf[inner] = realID
	a.FakeFor[realID] = inner
	return inner, nil
}
