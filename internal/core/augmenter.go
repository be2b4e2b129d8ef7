package core

import (
	"fmt"

	"repro/internal/graph"
)

// Augmenter is the one implementation of Algorithm 1: it builds the
// augmented graph G′ once — real edges with their original IDs, then
// fake edges appended in ascending real-ID order — and refreshes
// capacities/costs in place instead of re-cloning the topology. It has
// two layouts:
//
//   - dense (NewAugmenter): one fake edge per real edge. Links without
//     upgrade headroom keep their fake at capacity 0, which solvers
//     skip everywhere (Bellman–Ford, Dijkstra and the path kernel all
//     test Capacity > Eps), so the flows are bit-identical to the
//     compact layout's while the TE hot path gets a structurally
//     stable graph it can keep solver state for.
//   - compact (Augment): a fake edge only where ExtraCapacity > 0,
//     Algorithm 1 as written. It is built once per topology state and
//     may be gadgetized (Augmentation.UnsplittableGadget).
//
// Either way fakes are appended in real-ID order, so per-node arc
// orderings (and therefore solver tie-breaks) agree between layouts.
// Not safe for concurrent use.
type Augmenter struct {
	// G is the augmented graph G′. Callers run TE on it; they must not
	// modify it structurally.
	G *graph.Graph
	t *Topology
	p PenaltyFunc
	// fake[i] is real edge i's fake edge in G′, or graph.NoEdge where
	// the layout has none. Its length is the physical edge count.
	fake []graph.EdgeID
	// mid[i] is the base-capacity middle edge of real edge i's Figure-8
	// gadget (graph.NoEdge if not gadgetized); nil until the first
	// gadget. Its flow belongs to the physical link in translation.
	mid []graph.EdgeID
	// work accumulates exact unit counts since the last TakeWork call.
	work WorkStats
}

// WorkStats counts the augmentation layer's exact work units: edges
// refreshed into G′ and fake-edge scans while translating a flow back
// to capacity orders. Like graph.SolveStats these are plain integers
// derived only from structure and call order — never from timing — so
// they are byte-identical across runs and worker counts.
type WorkStats struct {
	RefreshEdges   int
	TranslateScans int
}

// TakeWork returns the work accumulated since the previous TakeWork
// (or construction) and resets the accumulator — the per-round delta
// the simulation publishes as rwc_work_augmenter_* counters.
func (a *Augmenter) TakeWork() WorkStats {
	w := a.work
	a.work = WorkStats{}
	return w
}

// NewAugmenter builds the dense augmented graph for t. A nil penalty
// defaults to PenaltyFromMatrix.
func NewAugmenter(t *Topology, penalty PenaltyFunc) (*Augmenter, error) {
	return newAugmenter(t, penalty, true)
}

// newAugmenter appends a fake edge per real edge (dense) or per link
// with headroom (compact), in real-ID order, and lets Refresh set every
// capacity and cost.
func newAugmenter(t *Topology, penalty PenaltyFunc, dense bool) (*Augmenter, error) {
	if t == nil || t.G == nil {
		return nil, fmt.Errorf("core: nil topology")
	}
	if penalty == nil {
		penalty = PenaltyFromMatrix
	}
	a := &Augmenter{
		G:    t.G.Clone(),
		t:    t,
		p:    penalty,
		fake: make([]graph.EdgeID, t.G.NumEdges()),
	}
	for i := range a.fake {
		id := graph.EdgeID(i)
		if !dense && t.Upgrades[id].ExtraCapacity <= 0 {
			a.fake[i] = graph.NoEdge
			continue
		}
		e := t.G.Edge(id)
		a.fake[i] = a.G.AddEdge(graph.Edge{
			From:   e.From,
			To:     e.To,
			Weight: e.Weight,
			Label:  FakeLabel,
		})
	}
	if err := a.Refresh(); err != nil {
		return nil, err
	}
	// Construction is not accounted work: the warm path builds once and
	// the cold path rebuilds every round, and the two must report
	// identical per-round work (the warm-vs-cold equivalence invariant).
	a.work = WorkStats{}
	return a, nil
}

// FakeID returns the fake edge in G′ for physical edge id, or
// graph.NoEdge where the layout has none.
func (a *Augmenter) FakeID(id graph.EdgeID) graph.EdgeID { return a.fake[id] }

// Refresh re-reads the topology — current capacities, Upgrades, and
// Traffic — into G′: real edges get the topology's capacity and the
// penalty function's real cost; fake edges get ⟨ExtraCapacity, fake
// cost⟩ when the link has headroom, ⟨0, 0⟩ otherwise. Call it after
// mutating the topology, before allocating. A link that gains headroom
// but has no fake edge (compact layout) is an error.
func (a *Augmenter) Refresh() error {
	t := a.t
	n := len(a.fake)
	if t.G.NumEdges() != n {
		return fmt.Errorf("core: topology grew from %d to %d edges; rebuild the augmenter",
			n, t.G.NumEdges())
	}
	a.work.RefreshEdges += n
	for i, fakeID := range a.fake {
		id := graph.EdgeID(i)
		e := t.G.Edge(id)
		up := t.Upgrades[id] // zero Upgrade if absent
		realCost, fakeCost := a.p(e, up, t.Traffic[id])
		a.G.SetCapacity(id, e.Capacity)
		a.G.SetCost(id, realCost)
		switch {
		case fakeID == graph.NoEdge:
			if up.ExtraCapacity > 0 {
				return fmt.Errorf("core: edge %d gained headroom but has no fake edge; rebuild the augmentation", i)
			}
		case up.ExtraCapacity > 0:
			a.G.SetCapacity(fakeID, up.ExtraCapacity)
			a.G.SetCost(fakeID, fakeCost)
		default:
			a.G.SetCapacity(fakeID, 0)
			a.G.SetCost(fakeID, 0)
		}
	}
	return nil
}

// TranslateInto converts a flow result computed on G′ back into
// physical-topology terms: which links to upgrade (fake flow above
// graph.Eps) and the combined real + gadget-middle + fake flow per
// physical edge. It fills d, reusing d.EdgeFlow and d.Changes backing
// arrays, and allocates nothing once those have grown to steady-state
// size. Changes come out ascending by edge ID because fakes are read in
// real-ID order.
func (a *Augmenter) TranslateInto(d *Decision, res graph.FlowResult) error {
	if len(res.EdgeFlow) != a.G.NumEdges() {
		return fmt.Errorf("core: flow result has %d edges, augmented graph has %d",
			len(res.EdgeFlow), a.G.NumEdges())
	}
	t := a.t
	n := len(a.fake)
	d.Value = res.Value
	d.PenaltyCost = res.Cost
	if cap(d.EdgeFlow) < n {
		d.EdgeFlow = make([]float64, n)
	}
	d.EdgeFlow = d.EdgeFlow[:n]
	// Real edges share IDs with the original topology (gadgetized ones
	// have zero capacity in G′ and therefore zero flow here).
	copy(d.EdgeFlow, res.EdgeFlow[:n])
	d.Changes = d.Changes[:0]
	a.work.TranslateScans += n
	for i, fakeID := range a.fake {
		if a.mid != nil && a.mid[i] != graph.NoEdge {
			d.EdgeFlow[i] += res.EdgeFlow[a.mid[i]]
		}
		if fakeID == graph.NoEdge {
			continue
		}
		f := res.EdgeFlow[fakeID]
		if f <= graph.Eps {
			continue
		}
		realID := graph.EdgeID(i)
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
	return nil
}

// AttributionInto appends one FakeAttribution per upgradable link that
// has a fake edge (ExtraCapacity > 0; gadgetized links attribute via
// their inner fake edge) into dst[:0] and returns it, ascending by real
// edge ID. Zero-headroom links are omitted, so both layouts give the
// same verdicts. Out-of-range fake IDs read as zero flow, so a partial
// edgeFlow never panics.
func (a *Augmenter) AttributionInto(dst []FakeAttribution, edgeFlow []float64) []FakeAttribution {
	res := graph.FlowResult{EdgeFlow: edgeFlow}
	out := dst[:0]
	for i, fakeID := range a.fake {
		realID := graph.EdgeID(i)
		if fakeID == graph.NoEdge || a.t.Upgrades[realID].ExtraCapacity <= 0 {
			continue
		}
		fe := a.G.Edge(fakeID)
		out = append(out, FakeAttribution{
			Real:         realID,
			Fake:         fakeID,
			FakeCapacity: fe.Capacity,
			FakePenalty:  fe.Cost,
			FlowOnFake:   res.FlowOn(fakeID),
		})
	}
	return out
}
