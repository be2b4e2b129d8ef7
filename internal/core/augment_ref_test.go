package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// This file keeps the compact augmentation as it was before Augment
// became a layout of Augmenter: its own construction loops, its own
// map-walk Translate with a sort, and its own Attribution. It is the
// oracle TestAugmenterMatchesAugment holds both layouts to; the bodies
// are unchanged apart from the ref prefix on names.

type refAugmentation struct {
	Graph    *graph.Graph
	FakeOf   map[graph.EdgeID]graph.EdgeID
	FakeFor  map[graph.EdgeID]graph.EdgeID
	Topology *Topology
	gadgets  map[graph.EdgeID]refGadgetInfo
}

type refGadgetInfo struct {
	midReal graph.EdgeID
	inner   graph.EdgeID
}

func refAugment(t *Topology, penalty PenaltyFunc) (*refAugmentation, error) {
	if t == nil || t.G == nil {
		return nil, fmt.Errorf("core: nil topology")
	}
	if penalty == nil {
		penalty = PenaltyFromMatrix
	}
	a := &refAugmentation{
		Graph:    t.G.Clone(),
		FakeOf:   make(map[graph.EdgeID]graph.EdgeID),
		FakeFor:  make(map[graph.EdgeID]graph.EdgeID),
		Topology: t,
	}
	// First pass: set real-edge costs via the penalty function.
	for _, e := range t.G.Edges() {
		up := t.Upgrades[e.ID] // zero Upgrade if absent
		realCost, _ := penalty(e, up, t.Traffic[e.ID])
		a.Graph.SetCost(e.ID, realCost)
	}
	// Second pass: append fake edges for upgradable links, in edge-ID
	// order for determinism.
	for _, e := range t.G.Edges() {
		up, ok := t.Upgrades[e.ID]
		if !ok || up.ExtraCapacity <= 0 {
			continue
		}
		_, fakeCost := penalty(e, up, t.Traffic[e.ID])
		fakeID := a.Graph.AddEdge(graph.Edge{
			From:     e.From,
			To:       e.To,
			Capacity: up.ExtraCapacity,
			Cost:     fakeCost,
			Weight:   e.Weight,
			Label:    FakeLabel,
		})
		a.FakeOf[fakeID] = e.ID
		a.FakeFor[e.ID] = fakeID
	}
	return a, nil
}

func (a *refAugmentation) RemoveInfeasible(keep func(realEdge graph.EdgeID) bool) int {
	removed := 0
	for fakeID, realID := range a.FakeOf {
		if !keep(realID) {
			if a.Graph.Edge(fakeID).Capacity > 0 {
				a.Graph.SetCapacity(fakeID, 0)
				removed++
			}
		}
	}
	return removed
}

func (a *refAugmentation) UnsplittableGadget(realID graph.EdgeID) (graph.EdgeID, error) {
	up, ok := a.Topology.Upgrades[realID]
	if !ok {
		return graph.NoEdge, fmt.Errorf("core: edge %d has no upgrade to gadgetize", int(realID))
	}
	if _, hasFake := a.FakeFor[realID]; !hasFake {
		return graph.NoEdge, fmt.Errorf("core: edge %d has no fake edge", int(realID))
	}
	if _, done := a.gadgets[realID]; done {
		return graph.NoEdge, fmt.Errorf("core: edge %d already gadgetized", int(realID))
	}
	e := a.Topology.G.Edge(realID)
	base := e.Capacity
	full := base + up.ExtraCapacity

	aPrime := a.Graph.AddNode(a.Graph.NodeName(e.From) + "'")
	bPrime := a.Graph.AddNode(a.Graph.NodeName(e.To) + "'")

	// Disable the plain real and fake parallel edges.
	oldFake := a.FakeFor[realID]
	a.Graph.SetCapacity(realID, 0)
	a.Graph.SetCapacity(oldFake, 0)
	delete(a.FakeOf, oldFake)
	delete(a.FakeFor, realID)

	a.Graph.AddEdge(graph.Edge{From: e.From, To: aPrime, Capacity: full, Weight: 0})
	mid := a.Graph.AddEdge(graph.Edge{From: aPrime, To: bPrime, Capacity: base, Weight: e.Weight})
	inner := a.Graph.AddEdge(graph.Edge{
		From: aPrime, To: bPrime, Capacity: full,
		Cost: a.Graph.Edge(oldFake).Cost, Weight: e.Weight, Label: FakeLabel,
	})
	a.Graph.AddEdge(graph.Edge{From: bPrime, To: e.To, Capacity: full, Weight: 0})

	a.FakeOf[inner] = realID
	a.FakeFor[realID] = inner
	if a.gadgets == nil {
		a.gadgets = make(map[graph.EdgeID]refGadgetInfo)
	}
	a.gadgets[realID] = refGadgetInfo{midReal: mid, inner: inner}
	return inner, nil
}

func (a *refAugmentation) Translate(res graph.FlowResult) (*Decision, error) {
	if len(res.EdgeFlow) != a.Graph.NumEdges() {
		return nil, fmt.Errorf("core: flow result has %d edges, augmented graph has %d",
			len(res.EdgeFlow), a.Graph.NumEdges())
	}
	t := a.Topology
	d := &Decision{
		EdgeFlow:    make([]float64, t.G.NumEdges()),
		Value:       res.Value,
		PenaltyCost: res.Cost,
	}
	// Real edges share IDs with the original topology (gadgetized ones
	// have zero capacity in G′ and therefore zero flow here).
	for id := 0; id < t.G.NumEdges(); id++ {
		d.EdgeFlow[id] = res.EdgeFlow[id]
	}
	// Gadget middle edges carry the base-capacity share of their link.
	for realID, gi := range a.gadgets {
		d.EdgeFlow[realID] += res.EdgeFlow[gi.midReal]
	}
	// Fake-edge flow maps onto the physical link and, if positive,
	// instructs an upgrade.
	for fakeID, realID := range a.FakeOf {
		f := res.EdgeFlow[fakeID]
		if f <= graph.Eps {
			continue
		}
		d.EdgeFlow[realID] += f
		up := t.Upgrades[realID]
		e := t.G.Edge(realID)
		d.Changes = append(d.Changes, CapacityChange{
			Edge:        realID,
			OldCapacity: e.Capacity,
			NewCapacity: e.Capacity + up.ExtraCapacity,
			Penalty:     up.Penalty,
			FlowOnFake:  f,
		})
	}
	sort.Slice(d.Changes, func(i, j int) bool { return d.Changes[i].Edge < d.Changes[j].Edge })
	return d, nil
}

func (a *refAugmentation) Attribution(edgeFlow []float64) []FakeAttribution {
	res := graph.FlowResult{EdgeFlow: edgeFlow}
	out := make([]FakeAttribution, 0, len(a.FakeFor))
	for realID, fakeID := range a.FakeFor {
		fe := a.Graph.Edge(fakeID)
		out = append(out, FakeAttribution{
			Real:         realID,
			Fake:         fakeID,
			FakeCapacity: fe.Capacity,
			FakePenalty:  fe.Cost,
			FlowOnFake:   res.FlowOn(fakeID),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Real < out[j].Real })
	return out
}
