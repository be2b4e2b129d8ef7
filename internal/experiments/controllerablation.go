package experiments

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/graph"
	"repro/internal/te"
)

// ControllerVariant is one row of the safeguard ablation.
type ControllerVariant struct {
	Name string
	// Changes is total modulation churn over the run.
	Changes int
	// MeanSatisfied is the average demand-satisfaction fraction.
	MeanSatisfied float64
	// DegradedRounds and DarkRounds are the availability ledger.
	DegradedRounds, DarkRounds int
}

// ControllerAblationResult compares the control loop's operational
// safeguards (flap damping, change budget) on a flapping-link scenario:
// the churn-vs-throughput trade-off DESIGN.md calls out.
type ControllerAblationResult struct {
	Rounds   int
	Variants []ControllerVariant
}

// ControllerAblation runs a 4-node ring whose one link oscillates
// around the 100 G threshold every round, under four controller
// configurations.
func ControllerAblation(o Options) (*ControllerAblationResult, error) {
	return controllerAblation(o, nil)
}

// controllerAblation is ControllerAblation handing every Step's plan,
// with its variant's name, to onPlan (when non-nil).
func controllerAblation(o Options, onPlan func(variant string, p *controller.Plan)) (*ControllerAblationResult, error) {
	defer o.span("controller-ablation")()
	g := graph.New()
	n := make([]graph.NodeID, 4)
	for i := range n {
		n[i] = g.AddNode(fmt.Sprintf("n%d", i))
	}
	for i := range n {
		j := (i + 1) % 4
		g.AddEdge(graph.Edge{From: n[i], To: n[j], Weight: 1})
		g.AddEdge(graph.Edge{From: n[j], To: n[i], Weight: 1})
	}

	rounds := o.SimRounds
	if rounds < 8 {
		rounds = 8
	}
	demands := []te.Demand{
		{Src: n[0], Dst: n[2], Volume: 130},
		{Src: n[1], Dst: n[3], Volume: 60},
	}

	cfg := controller.Config{UpgradeHoldObservations: 1}
	// Aggressive damping: two changes in quick succession suppress the
	// link until a long quiet period (slow decay) — it parks at the
	// degraded-but-up rung instead of flapping.
	damping := controller.DampingConfig{
		PenaltyPerChange:  1000,
		SuppressThreshold: 1800,
		ReuseThreshold:    400,
		DecayFactor:       0.9,
	}
	variants := []struct {
		name            string
		damping, budget bool
	}{
		{"no safeguards", false, false},
		{"flap damping", true, false},
		{"change budget 1/round", false, true},
		{"damping + budget", true, true},
	}

	res := &ControllerAblationResult{Rounds: rounds}
	for _, v := range variants {
		work := g.Clone()
		ctrl, err := controller.New(work, 100, cfg)
		if err != nil {
			return nil, err
		}
		if v.damping {
			ctrl.EnableDamping(damping)
		}
		if v.budget {
			ctrl.SetMaxChangesPerRound(1)
		}
		row, err := flapRounds(ctrl, work, rounds, demands, v.name, onPlan)
		if err != nil {
			return nil, fmt.Errorf("experiments: variant %q: %w", v.name, err)
		}
		res.Variants = append(res.Variants, row)
	}
	return res, nil
}

// flapRounds steps ctrl for the given rounds while link 0 flaps between
// 50 Gbps territory (even rounds) and healthy (odd rounds), every other
// link staying healthy, and tallies churn, demand satisfaction and the
// dark/degraded link-rounds against the 100 G initial capacity.
func flapRounds(ctrl *controller.Controller, g *graph.Graph, rounds int, demands []te.Demand,
	name string, onPlan func(string, *controller.Plan)) (ControllerVariant, error) {
	v := ControllerVariant{Name: name}
	var offered, satSum float64
	for _, d := range demands {
		offered += d.Volume
	}
	for r := 0; r < rounds; r++ {
		for _, e := range g.Edges() {
			snr := 16.0
			if e.ID == 0 && r%2 == 0 {
				snr = 4.2
			}
			if _, err := ctrl.ObserveSNR(e.ID, snr); err != nil {
				return v, err
			}
		}
		plan, err := ctrl.Step(demands)
		if err != nil {
			return v, err
		}
		if onPlan != nil {
			onPlan(name, plan)
		}
		v.Changes += len(plan.Orders)
		satSum += plan.Decision.Value / offered
		for _, e := range g.Edges() {
			switch cap, _ := ctrl.Configured(e.ID); {
			case cap == 0:
				v.DarkRounds++
			case cap < 100:
				v.DegradedRounds++
			}
		}
	}
	v.MeanSatisfied = satSum / float64(rounds)
	return v, nil
}

// Table renders the ablation.
func (r *ControllerAblationResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Controller safeguards on a flapping link (%d rounds)", r.Rounds),
		Columns: []string{"variant", "changes", "mean satisfied", "degraded link-rounds", "dark link-rounds"},
	}
	for _, v := range r.Variants {
		t.Rows = append(t.Rows, []string{
			v.Name, fmt.Sprintf("%d", v.Changes), pct(v.MeanSatisfied),
			fmt.Sprintf("%d", v.DegradedRounds), fmt.Sprintf("%d", v.DarkRounds),
		})
	}
	t.Notes = append(t.Notes,
		"damping trades a little throughput (link parks at 50G) for far fewer modulation changes",
		"each change costs ~68 s of downtime on power-cycling transceivers — churn is not free")
	return t
}
