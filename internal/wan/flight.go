package wan

import (
	"repro/internal/gate"
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
// gate's verdicts. augFlow is the solver's flow on the augmented
// graph, nil for the static policies. This is the one place that asks
// whether a recorder is attached — it has to, because attribution
// counts work (core.WorkStats.AttributionChecks) that must not happen,
// let alone be published, on a run without one.
func (pr *policyRun) captureFlight(r int, m RoundMetrics, augFlow []float64) {
	s, st := pr.s, pr.st
	if s.cfg.Flight == nil {
		return
	}
	if st.gate != nil { // dynamic policy; the static ones never fill st.att
		st.att = st.gate.Aug.AttributionInto(st.att, augFlow)
	}
	net := s.cfg.Net
	edges := net.G.Edges()
	rec := flight.RoundRecord{
		Run:          s.cfg.FlightRun,
		Policy:       pr.policy.String(),
		Round:        r,
		OfferedGbps:  m.OfferedGbps,
		ShippedGbps:  m.ShippedGbps,
		CapacityGbps: m.CapacityGbps,
		Changes:      m.Changes,
		Links:        make([]flight.LinkRecord, len(edges)),
	}
	// att is ascending by real edge ID, as edges is: walk them together.
	att := st.att
	for i, e := range edges {
		f := net.FiberOf[e.ID]
		minSNR := s.snrAt[f][0][r]
		var feasible float64
		for w := 0; w < net.Wavelengths; w++ {
			if v := s.snrAt[f][w][r]; v < minSNR {
				minSNR = v
			}
			feasible += float64(s.FeasibleAt(f, w, r))
		}
		var tier float64
		if mode, ok := s.cfg.Ladder.FeasibleCapacity(minSNR); ok {
			tier = float64(mode.Capacity)
		}
		lr := flight.LinkRecord{
			LinkIndex:    i,
			SNRdB:        minSNR,
			TierGbps:     tier,
			FeasibleGbps: feasible,
			CapacityGbps: st.capNow[e.ID],
			FlowGbps:     pr.prevFlow[e.ID],
		}
		if len(att) > 0 && att[0].Real == e.ID {
			lr.Fake = true
			lr.FakeCapGbps = att[0].FakeCapacity
			lr.FakePenalty = att[0].FakePenalty
			lr.FakeFlowGbps = att[0].FlowOnFake
			lr.ResidualGbps = att[0].Residual
			att = att[1:]
		}
		v := gate.VerdictSteady
		if st.gate != nil {
			v = st.gate.Verdicts[e.ID]
		}
		switch {
		case v == gate.VerdictUpgraded:
			lr.Verdict = flight.VerdictUpgrade
		case v == gate.VerdictForcedDowngrade:
			lr.Verdict = flight.VerdictForcedDowngrade
		case v == gate.VerdictOffered:
			lr.Verdict = flight.VerdictHeadroomIdle
		case lr.CapacityGbps == 0: //nolint:nofloateq // sum of integral Gbps rungs; 0 means truly dark
			lr.Verdict = flight.VerdictDark
		default:
			lr.Verdict = flight.VerdictSteady
		}
		rec.Links[i] = lr
	}
	s.cfg.Flight.Record(rec)
}
