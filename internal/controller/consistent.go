package controller

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/te"
)

// ConsistentPlan is the §4.2(ii) three-state update: flows that can be
// temporarily rerouted (but must not be disrupted) are moved off the
// links about to be re-modulated, the modulation changes run on idle
// links, and traffic converges to the final assignment.
type ConsistentPlan struct {
	// Final is the target state the TE chose (including upgrades).
	Final *Plan
	// Intermediate is the allocation with the to-be-updated links EU
	// removed from the topology: traffic rides it while transceivers
	// re-modulate, so no flow crosses a link mid-change.
	Intermediate *te.Allocation
	// UpdatedEdges is EU — the links whose capacity changes.
	UpdatedEdges []graph.EdgeID
	// IntermediateLoss is the throughput sacrificed during the window:
	// Final.Decision.Value − Intermediate.Throughput (≥ 0 when the
	// removed links were load-bearing).
	IntermediateLoss float64
}

// ConsistentStep runs one control-loop iteration with consistent
// updates: it computes the final plan exactly like Step, then — if any
// capacity changes — identifies EU, removes those links from the
// topology, and re-invokes the unmodified TE to obtain the
// intermediate state ("after identifying the links to be updated EU,
// we remove EU from the topology and invoke the TE controller again").
func (c *Controller) ConsistentStep(demands []te.Demand) (*ConsistentPlan, error) {
	final, err := c.Step(demands)
	if err != nil {
		return nil, err
	}
	cp := &ConsistentPlan{Final: final}
	for _, o := range final.Orders {
		cp.UpdatedEdges = append(cp.UpdatedEdges, o.Edge)
	}
	if len(cp.UpdatedEdges) == 0 {
		// Nothing re-modulates; the final state applies immediately.
		cp.Intermediate = final.Allocation
		return cp, nil
	}
	// Build the intermediate topology: this step's TE input before any
	// upgrade — configured capacities minus pinned, exactly what the TE
	// was allowed to use — with EU links removed. Traffic rides this
	// while the transceivers change.
	inter := c.gate.Visible().Clone()
	for _, id := range cp.UpdatedEdges {
		inter.SetCapacity(id, 0)
	}
	alloc, err := c.cfg.TE.Allocate(inter, demands)
	if err != nil {
		return nil, fmt.Errorf("controller: intermediate TE: %w", err)
	}
	cp.Intermediate = alloc
	cp.IntermediateLoss = max(final.Decision.Value-alloc.Throughput, 0)
	return cp, nil
}
