package core

import "repro/internal/graph"

// CapacityChange is one physical-link upgrade instructed by the TE
// output (step 3a of the construction: "decisions about which link
// capacities should be modified").
type CapacityChange struct {
	// Edge is the physical edge in the original topology.
	Edge graph.EdgeID
	// OldCapacity and NewCapacity are the configured capacities before
	// and after the modulation change.
	OldCapacity, NewCapacity float64
	// Penalty is the activation penalty P[v,w] from the upgrade matrix.
	Penalty float64
	// FlowOnFake is how much of the TE flow actually rides the upgrade.
	FlowOnFake float64
}

// Decision is the translated TE output: which links to upgrade and the
// flow assignment expressed on the *physical* topology (step 3b: "the
// flow-paths of the current traffic demands").
type Decision struct {
	// Changes lists the capacity upgrades, ascending by edge ID.
	Changes []CapacityChange
	// EdgeFlow is the combined (real + fake) flow per physical edge,
	// indexed by the original topology's edge IDs.
	EdgeFlow []float64
	// Value is the total flow shipped.
	Value float64
	// PenaltyCost is the TE-charged cost of the assignment on G′.
	PenaltyCost float64
}

// Translate converts a flow result computed on the augmented graph G′
// back into physical-topology terms. The TE algorithm never saw the
// dynamic capacities; this is where its output becomes (a) modulation
// changes and (b) flows on real links.
func (a *Augmentation) Translate(res graph.FlowResult) (*Decision, error) {
	d := &Decision{}
	if err := a.aug.TranslateInto(d, res); err != nil {
		return nil, err
	}
	return d, nil
}

// ApplyTo returns a copy of the physical graph with the decision's
// capacity changes applied — the topology the network converges to
// after the modulation changes complete.
func (d *Decision) ApplyTo(g *graph.Graph) *graph.Graph {
	out := g.Clone()
	for _, ch := range d.Changes {
		out.SetCapacity(ch.Edge, ch.NewCapacity)
	}
	return out
}
