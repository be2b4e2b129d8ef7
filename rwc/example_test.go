package rwc_test

import (
	"fmt"

	"repro/rwc"
)

// ExampleAugment reproduces the library's core flow: a link whose SNR
// supports double its configured rate, a demand that needs the
// headroom, and a TE run that decides the upgrade.
func ExampleAugment() {
	g := rwc.NewGraph()
	a, b := g.AddNode("A"), g.AddNode("B")
	link := g.AddEdge(rwc.Edge{From: a, To: b, Capacity: 100, Weight: 1})

	top := rwc.NewTopology(g)
	if err := top.SetUpgrade(link, 100, 50); err != nil {
		fmt.Println(err)
		return
	}

	aug, err := rwc.Augment(top, rwc.PenaltyFromMatrix)
	if err != nil {
		fmt.Println(err)
		return
	}
	alloc, err := rwc.Greedy{}.Allocate(aug.Graph, []rwc.Demand{{Src: a, Dst: b, Volume: 150}})
	if err != nil {
		fmt.Println(err)
		return
	}
	dec, err := aug.Translate(rwc.FlowResult{Value: alloc.Throughput, EdgeFlow: alloc.EdgeFlow})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, ch := range dec.Changes {
		fmt.Printf("upgrade link %d: %.0f -> %.0f Gbps (%.0f Gbps rides the upgrade)\n",
			ch.Edge, ch.OldCapacity, ch.NewCapacity, ch.FlowOnFake)
	}
	// Output:
	// upgrade link 0: 100 -> 200 Gbps (50 Gbps rides the upgrade)
}

// Example_quickstart walks through the paper's Figure 7: a four-node
// WAN whose (A,B) and (C,D) links can double their capacity, demands
// that outgrow the static configuration, and a TE algorithm that —
// without knowing anything about optics — decides which links to
// re-modulate.
func Example_quickstart() {
	// Physical topology: bidirectional 100 Gbps links A-B, C-D, A-C,
	// B-D (Figure 7a).
	g := rwc.NewGraph()
	nodes := map[string]rwc.NodeID{}
	for _, n := range []string{"A", "B", "C", "D"} {
		nodes[n] = g.AddNode(n)
	}
	top := rwc.NewTopology(g)
	for _, l := range []struct {
		u, v       string
		upgradable bool
	}{{"A", "B", true}, {"C", "D", true}, {"A", "C", false}, {"B", "D", false}} {
		for _, pair := range [][2]string{{l.u, l.v}, {l.v, l.u}} {
			id := g.AddEdge(rwc.Edge{
				From: nodes[pair[0]], To: nodes[pair[1]],
				Capacity: 100, Weight: 1,
			})
			if !l.upgradable {
				continue
			}
			// SNR supports +100 Gbps; re-modulating costs 100 (per
			// unit of traffic riding the upgrade).
			if err := top.SetUpgrade(id, 100, 100); err != nil {
				fmt.Println(err)
				return
			}
		}
	}

	// Demands grew from 100 to 125 Gbps each (the paper's example).
	demands := []rwc.Demand{
		{Src: nodes["A"], Dst: nodes["B"], Volume: 125},
		{Src: nodes["C"], Dst: nodes["D"], Volume: 125},
	}

	// Step 1 (Algorithm 1): augment the topology with fake links.
	aug, err := rwc.Augment(top, rwc.PenaltyFromMatrix)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("physical edges: %d, augmented edges: %d (one fake per upgradable link)\n",
		g.NumEdges(), aug.Graph.NumEdges())

	// Step 2: run an UNMODIFIED TE algorithm on the augmented graph.
	alloc, err := rwc.Greedy{}.Allocate(aug.Graph, demands)
	if err != nil {
		fmt.Println(err)
		return
	}

	// Step 3: translate the TE output into modulation decisions and
	// physical flows.
	dec, err := aug.Translate(rwc.FlowResult{Value: alloc.Throughput, EdgeFlow: alloc.EdgeFlow})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("shipped %.0f of %.0f Gbps demanded\n", dec.Value, 250.0)
	for _, ch := range dec.Changes {
		e := g.Edge(ch.Edge)
		fmt.Printf("re-modulate %s->%s: %.0f -> %.0f Gbps (%.0f Gbps rides the upgrade)\n",
			g.NodeName(e.From), g.NodeName(e.To),
			ch.OldCapacity, ch.NewCapacity, ch.FlowOnFake)
	}
	// Physical flows: A->B's overflow detours A->C->D->B over the
	// upgraded C->D.
	for id, f := range dec.EdgeFlow {
		if f <= 0 {
			continue
		}
		e := g.Edge(rwc.EdgeID(id))
		fmt.Printf("%s->%s carries %.0f Gbps\n", g.NodeName(e.From), g.NodeName(e.To), f)
	}
	// Output:
	// physical edges: 8, augmented edges: 12 (one fake per upgradable link)
	// shipped 250 of 250 Gbps demanded
	// re-modulate C->D: 100 -> 200 Gbps (50 Gbps rides the upgrade)
	// A->B carries 100 Gbps
	// C->D carries 150 Gbps
	// A->C carries 25 Gbps
	// D->B carries 25 Gbps
}

// ExampleDriver_ChangeModulation shows §2.2's headline scenario: an
// amplifier failure drops a link's SNR from 12 dB to 4.5 dB. Under
// today's binary rule the link fails outright (SNR < 6.5 dB); with
// dynamic capacities it flaps to 50 Gbps (SNR ≥ 3.0 dB) and keeps
// carrying traffic while the repair happens.
func ExampleDriver_ChangeModulation() {
	ladder := rwc.DefaultLadder()
	tr, err := rwc.NewTransceiver(rwc.TransceiverConfig{
		InitialMode:  100,
		ChannelSNRdB: 12.0,
		HotCapable:   true, // §3.1's efficient reconfiguration
		Seed:         42,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	drv := rwc.NewDriver(tr, ladder)
	report := func(when string) {
		m, _ := tr.Mode()
		state := "UP"
		if !tr.LinkUp() {
			state = "DOWN"
		}
		fmt.Printf("%s: mode %v Gbps (%v, needs %.1f dB), link %s\n",
			when, m.Capacity, m.Format, m.MinSNRdB, state)
	}
	report("healthy")

	// An amplifier fails: SNR collapses to 4.5 dB, below the 100 Gbps
	// threshold — the binary rule's outage ticket.
	tr.SetChannelSNR(4.5)
	report("amplifier failure")

	// Dynamic capacity: flap down to the feasible rate instead.
	feasible, ok := ladder.FeasibleCapacity(4.5)
	if !ok {
		fmt.Println("no feasible mode")
		return
	}
	rep, err := drv.ChangeModulation(feasible.Capacity, rwc.MethodHot)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("hitless change to %v Gbps took %v of downtime\n", feasible.Capacity, rep.Downtime)
	report("flapped")

	// Repair completes; SNR recovers; upgrade back.
	tr.SetChannelSNR(12)
	rep, err = drv.ChangeModulation(150, rwc.MethodHot)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("upgrade to 150 Gbps took %v of downtime\n", rep.Downtime)
	report("repaired")
	// Output:
	// healthy: mode 100 Gbps (QPSK, needs 6.5 dB), link UP
	// amplifier failure: mode 100 Gbps (QPSK, needs 6.5 dB), link DOWN
	// hitless change to 50 Gbps took 26.909579ms of downtime
	// flapped: mode 50 Gbps (BPSK, needs 3.0 dB), link UP
	// upgrade to 150 Gbps took 35.760175ms of downtime
	// repaired: mode 150 Gbps (8QAM, needs 10.5 dB), link UP
}

// ExampleLadder_FeasibleCapacity shows the SNR-to-capacity lookup the
// whole system revolves around.
func ExampleLadder_FeasibleCapacity() {
	ladder := rwc.DefaultLadder()
	for _, snr := range []float64{2.0, 4.5, 7.0, 14.0, 16.0} {
		if m, ok := ladder.FeasibleCapacity(snr); ok {
			fmt.Printf("%.1f dB -> %.0f Gbps (%s)\n", snr, float64(m.Capacity), m.Format)
		} else {
			fmt.Printf("%.1f dB -> link down\n", snr)
		}
	}
	// Output:
	// 2.0 dB -> link down
	// 4.5 dB -> 50 Gbps (BPSK)
	// 7.0 dB -> 100 Gbps (QPSK)
	// 14.0 dB -> 175 Gbps (8QAM/16QAM hybrid)
	// 16.0 dB -> 200 Gbps (16QAM)
}

// ExampleCheckTheorem1 verifies the paper's equivalence theorem on a
// small instance.
func ExampleCheckTheorem1() {
	g := rwc.NewGraph()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	e1 := g.AddEdge(rwc.Edge{From: a, To: b, Capacity: 100})
	e2 := g.AddEdge(rwc.Edge{From: b, To: c, Capacity: 100})
	top := rwc.NewTopology(g)
	_ = top.SetUpgrade(e1, 100, 10)
	_ = top.SetUpgrade(e2, 100, 10)
	rep, err := rwc.CheckTheorem1(top, a, c, rwc.PenaltyFromMatrix)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("base %.0f, dynamic %.0f, augmented %.0f, holds: %v\n",
		rep.BaseValue, rep.FullValue, rep.AugmentedValue, rep.Holds)
	// Output:
	// base 100, dynamic 200, augmented 200, holds: true
}
