package wan

import (
	"repro/internal/graph"
	"repro/internal/modulation"
	"repro/internal/obs/flight"
)

// This file is the bridge between the simulator and the flight
// recorder (internal/obs/flight). Capture is pure reads of state the
// round already computed — no RNG draws, no ordering changes — so
// same-seed runs with and without a recorder produce byte-identical
// metrics, trace, and manifest artifacts.

// FlightLinks builds the recorder link table for a network: one entry
// per directed IP adjacency in edge-ID order, named "src->dst".
func FlightLinks(net *Network) []flight.Link {
	edges := net.G.Edges()
	links := make([]flight.Link, len(edges))
	for i, e := range edges {
		links[i] = flight.Link{
			Edge:  int(e.ID),
			Name:  net.G.NodeName(e.From) + "->" + net.G.NodeName(e.To),
			Fiber: net.FiberOf[e.ID],
		}
	}
	return links
}

// FlightLadder exports the modulation ladder as recorder rungs.
func FlightLadder(l *modulation.Ladder) []flight.LadderRung {
	modes := l.Modes()
	rungs := make([]flight.LadderRung, len(modes))
	for i, m := range modes {
		rungs[i] = flight.LadderRung{
			Gbps:     float64(m.Capacity),
			MinSNRdB: m.MinSNRdB,
			Format:   m.Format.String(),
		}
	}
	return rungs
}

// captureFlight records one frame for round r from what the round left
// in pr: capNow, prevFlow (this round's flow per physical edge) and the
// gate's verdicts as they are (the static policies have no gate and
// record 0, its steady). augFlow is the solver's flow on the augmented
// graph, nil for the static policies. This is the one place that asks
// whether a recorder is attached: attribution is work that a run
// without one must not do. A frame the recorder refuses is the round's
// error: the log must not silently lack it.
// The link row is the policy run's own, refilled each round: Record
// keeps nothing of it.
func (pr *policyRun) captureFlight(r int, m RoundMetrics, augFlow []float64) error {
	s, st := pr.s, pr.st
	if s.cfg.Flight == nil {
		return nil
	}
	if st.gate != nil { // dynamic policy; the static ones never fill st.att
		st.att = st.gate.Aug.AttributionInto(st.att, augFlow)
	}
	net := s.cfg.Net
	if pr.flightLinks == nil {
		pr.flightLinks = make([]flight.LinkRecord, net.G.NumEdges())
	}
	rec := flight.RoundRecord{
		Run:          s.cfg.FlightRun,
		Policy:       pr.policy.String(),
		Round:        r,
		OfferedGbps:  m.OfferedGbps,
		ShippedGbps:  m.ShippedGbps,
		CapacityGbps: m.CapacityGbps,
		Changes:      m.Changes,
		Links:        pr.flightLinks,
	}
	// att is ascending by real edge ID, as the link table is: walk them
	// together.
	att := st.att
	for i := range rec.Links {
		id := graph.EdgeID(i)
		f := net.FiberOf[id]
		minSNR := s.snrAt[f][0][r]
		var feasible float64
		for w := 0; w < net.Wavelengths; w++ {
			if v := s.snrAt[f][w][r]; v < minSNR {
				minSNR = v
			}
			feasible += float64(s.FeasibleAt(f, w, r))
		}
		lr := flight.LinkRecord{
			LinkIndex:    i,
			SNRdB:        minSNR,
			FeasibleGbps: feasible,
			CapacityGbps: st.capNow[id],
			FlowGbps:     pr.prevFlow[id],
		}
		if len(att) > 0 && att[0].Real == id {
			lr.FakeCapGbps = att[0].FakeCapacity
			lr.FakePenalty = att[0].FakePenalty
			lr.FakeFlowGbps = att[0].FlowOnFake
			att = att[1:]
		}
		if st.gate != nil {
			lr.Verdict = uint8(st.gate.Verdicts[id])
		}
		rec.Links[i] = lr
	}
	return s.cfg.Flight.Record(rec)
}
