package core

import "repro/internal/graph"

// This file answers the audit question behind Theorem 1 (§4): the TE
// algorithm selects fake edges implicitly, by routing flow over them —
// Attribution makes that selection explicit per physical link so the
// flight recorder can explain *why* an upgrade happened (or didn't).

// FakeAttribution describes, for one upgradable physical edge, what the
// augmentation offered the solver and what the solver did with it.
type FakeAttribution struct {
	// Real is the physical edge; Fake its fake edge in G′.
	Real, Fake graph.EdgeID
	// FakeCapacity and FakePenalty are the ⟨capacity, penalty⟩ the fake
	// edge advertised (§3.2): the headroom above the configured rate
	// and the per-unit activation cost charged for using it.
	FakeCapacity, FakePenalty float64
	// FlowOnFake is the flow the solver routed over the fake edge — a
	// positive value is the solver "selecting" the upgrade.
	FlowOnFake float64
}

// Attribution reports, for every upgradable physical edge, the fake
// edge the augmentation offered and how much flow the solver routed
// over it, sorted ascending by physical edge ID (see
// Augmenter.AttributionInto).
func (a *Augmentation) Attribution(edgeFlow []float64) []FakeAttribution {
	return a.aug.AttributionInto(make([]FakeAttribution, 0, len(a.FakeFor)), edgeFlow)
}
