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

// ExampleGraph_EdgeDisjointShortestPair combines classic 1+1
// protection routing with dynamic link capacities: a premium flow gets
// an edge-disjoint working/protection path pair (Suurballe), and when
// the working path's fiber degrades, the link flaps to 50 Gbps instead
// of failing — so the premium flow fails over while best-effort
// traffic keeps flowing on the degraded link.
func ExampleGraph_EdgeDisjointShortestPair() {
	// A five-node ring with one chord — enough for disjoint paths.
	g := rwc.NewGraph()
	names := []string{"SEA", "SLC", "DEN", "CHI", "NYC"}
	ids := make([]rwc.NodeID, len(names))
	for i, n := range names {
		ids[i] = g.AddNode(n)
	}
	edge := func(u, v int, w float64) rwc.EdgeID {
		return g.AddEdge(rwc.Edge{From: ids[u], To: ids[v], Capacity: 100, Weight: w})
	}
	seaSLC := edge(0, 1, 7)
	edge(1, 2, 5)  // SLC-DEN
	edge(2, 3, 9)  // DEN-CHI
	edge(3, 4, 8)  // CHI-NYC
	edge(0, 3, 20) // SEA-CHI long way
	edge(1, 4, 19) // SLC-NYC chord

	// Protection routing for the premium flow SEA -> NYC.
	pair, ok := g.EdgeDisjointShortestPair(ids[0], ids[4])
	if !ok {
		fmt.Println("no disjoint pair")
		return
	}
	printPath := func(label string, p rwc.Path) {
		fmt.Printf("%s:", label)
		for _, n := range p.Nodes {
			fmt.Printf(" %s", g.NodeName(n))
		}
		fmt.Printf(" (weight %.0f)\n", p.WeightOn(g))
	}
	printPath("working", pair.Working)
	printPath("protection", pair.Protection)

	// The SEA-SLC fiber degrades: SNR falls from 14 dB to 4 dB, and
	// the link flaps to the feasible rate instead of going dark.
	ladder := rwc.DefaultLadder()
	before, _ := ladder.FeasibleCapacity(14)
	after, ok := ladder.FeasibleCapacity(4)
	if !ok {
		fmt.Println("link would be dark")
		return
	}
	fmt.Printf("SEA-SLC feasible capacity: %v -> %v Gbps\n", before.Capacity, after.Capacity)
	g.SetCapacity(seaSLC, float64(after.Capacity))

	// The premium flow fails over if its working path crosses the
	// degraded link.
	for _, id := range pair.Working.Edges {
		if id == seaSLC {
			fmt.Println("premium flow: working path degraded, switching to protection")
		}
	}

	// Best-effort traffic keeps using the degraded link at 50 Gbps.
	alloc, err := rwc.Greedy{}.Allocate(g, []rwc.Demand{
		{Src: ids[0], Dst: ids[1], Volume: 60}, // SEA -> SLC best effort
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("best-effort SEA->SLC: shipped %.0f of 60 Gbps over the degraded link\n",
		alloc.Results[0].Shipped)
	// Output:
	// working: SEA SLC NYC (weight 26)
	// protection: SEA CHI NYC (weight 28)
	// SEA-SLC feasible capacity: 175 -> 50 Gbps
	// premium flow: working path degraded, switching to protection
	// best-effort SEA->SLC: shipped 50 of 60 Gbps over the degraded link
}

// ExampleNewOpticalNetwork shows the optical layer the paper's IP
// links rest on: a fiber plant, lightpath provisioning with first-fit
// wavelength assignment and QoT admission, and the export of the
// provisioned network as the Algorithm-1 input with the upgrade
// matrices already filled in from each lightpath's SNR headroom.
func ExampleNewOpticalNetwork() {
	// Fiber plant (lengths in km).
	fibers := rwc.NewGraph()
	sea := fibers.AddNode("SEA")
	slc := fibers.AddNode("SLC")
	den := fibers.AddNode("DEN")
	chi := fibers.AddNode("CHI")
	nyc := fibers.AddNode("NYC")
	both := func(u, v rwc.NodeID, km float64) {
		fibers.AddEdge(rwc.Edge{From: u, To: v, Weight: km})
		fibers.AddEdge(rwc.Edge{From: v, To: u, Weight: km})
	}
	both(sea, slc, 1120)
	both(slc, den, 600)
	both(den, chi, 1480)
	both(chi, nyc, 1270)
	both(sea, chi, 3300) // express route

	optical, err := rwc.NewOpticalNetwork(fibers, rwc.OpticalConfig{Channels: 40})
	if err != nil {
		fmt.Println(err)
		return
	}

	// Provision the IP topology: a wavelength for each adjacency plus
	// an express SEA-NYC wavelength.
	for _, pair := range [][2]rwc.NodeID{
		{sea, slc}, {slc, sea}, {slc, den}, {den, slc},
		{den, chi}, {chi, den}, {chi, nyc}, {nyc, chi},
		{sea, nyc}, {nyc, sea},
	} {
		if _, err := optical.Provision(pair[0], pair[1]); err != nil {
			fmt.Println(err)
			return
		}
	}
	fmt.Printf("spectrum utilization: %.1f%%\n", 100*optical.Utilization())

	// Export the Algorithm-1 input: topology + upgrade matrices derived
	// from QoT headroom.
	top, mapping, err := optical.ToTopology(50)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("exported TE input: %d IP links, %d upgradable\n",
		top.G.NumEdges(), len(top.Upgrades))

	// TE round: a big SEA->NYC demand.
	aug, err := rwc.Augment(top, rwc.PenaltyFromMatrix)
	if err != nil {
		fmt.Println(err)
		return
	}
	alloc, err := rwc.Greedy{}.Allocate(aug.Graph, []rwc.Demand{
		{Src: sea, Dst: nyc, Volume: 250},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	dec, err := aug.Translate(rwc.FlowResult{Value: alloc.Throughput, EdgeFlow: alloc.EdgeFlow})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("TE shipped %.0f of 250 Gbps SEA->NYC; %d modulation upgrades ordered\n",
		dec.Value, len(dec.Changes))

	// Commit the upgrades to the optical layer.
	if err := optical.ApplyDecision(dec, mapping); err != nil {
		fmt.Println(err)
		return
	}
	for _, lp := range optical.Lightpaths() {
		fmt.Printf("λ%02d %s->%s: %4.0f km, SNR %4.1f dB, %3.0fG of %3.0fG feasible\n",
			lp.Channel, fibers.NodeName(lp.Src), fibers.NodeName(lp.Dst),
			lp.LengthKm, lp.SNRdB, float64(lp.Capacity), float64(lp.Feasible))
	}
	// Output:
	// spectrum utilization: 4.0%
	// exported TE input: 10 IP links, 10 upgradable
	// TE shipped 250 of 250 Gbps SEA->NYC; 1 modulation upgrades ordered
	// λ00 SEA->SLC: 1120 km, SNR 17.5 dB, 100G of 200G feasible
	// λ00 SLC->SEA: 1120 km, SNR 17.5 dB, 100G of 200G feasible
	// λ00 SLC->DEN:  600 km, SNR 19.9 dB, 100G of 200G feasible
	// λ00 DEN->SLC:  600 km, SNR 19.9 dB, 100G of 200G feasible
	// λ00 DEN->CHI: 1480 km, SNR 16.1 dB, 100G of 200G feasible
	// λ00 CHI->DEN: 1480 km, SNR 16.1 dB, 100G of 200G feasible
	// λ00 CHI->NYC: 1270 km, SNR 16.9 dB, 100G of 200G feasible
	// λ00 NYC->CHI: 1270 km, SNR 16.9 dB, 100G of 200G feasible
	// λ01 SEA->NYC: 4470 km, SNR 11.4 dB, 150G of 150G feasible
	// λ01 NYC->SEA: 4470 km, SNR 11.4 dB, 100G of 150G feasible
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
