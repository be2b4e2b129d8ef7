package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
)

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

// MinimizeActivations post-processes a min-cost max-flow result on the
// augmented graph, greedily dropping activated fake edges whose traffic
// can be re-routed without losing flow value or increasing cost. This
// realizes Figure 7b's "few increases" objective even when per-unit
// penalties tie (the fixed-charge version of the problem is NP-hard, so
// a greedy pass is the practical choice). It returns a flow result on
// the same augmented graph.
func (a *Augmentation) MinimizeActivations(src, dst graph.NodeID, res graph.FlowResult) (graph.FlowResult, error) {
	if len(res.EdgeFlow) != a.Graph.NumEdges() {
		return graph.FlowResult{}, fmt.Errorf("core: flow result size mismatch")
	}
	type activation struct {
		fake graph.EdgeID
		flow float64
	}
	current := res
	disabled := make(map[graph.EdgeID]bool)
	for {
		var acts []activation
		for fakeID := range a.FakeOf {
			if disabled[fakeID] {
				continue
			}
			if f := current.EdgeFlow[fakeID]; f > graph.Eps {
				acts = append(acts, activation{fake: fakeID, flow: f})
			}
		}
		// Try the least-used activation first.
		sort.Slice(acts, func(i, j int) bool {
			if acts[i].flow != acts[j].flow { //nolint:nofloateq // comparator tie-break: tolerance would break strict weak ordering
				return acts[i].flow < acts[j].flow
			}
			return acts[i].fake < acts[j].fake
		})
		improved := false
		for _, act := range acts {
			trial := a.Graph.Clone()
			for id := range disabled {
				trial.SetCapacity(id, 0)
			}
			trial.SetCapacity(act.fake, 0)
			alt, err := trial.MinCostFlow(src, dst, math.Inf(1))
			if err != nil {
				return graph.FlowResult{}, err
			}
			if alt.Value+graph.Eps >= current.Value && alt.Cost <= current.Cost+graph.Eps {
				disabled[act.fake] = true
				current = alt
				improved = true
				break
			}
		}
		if !improved {
			return current, nil
		}
	}
}
