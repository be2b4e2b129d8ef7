package flight

import (
	"fmt"
	"strconv"
	"strings"
)

// This file renders the causal chain behind one link's capacity in one
// round: SNR sample → modulation table lookup → fake-edge ⟨capacity,
// penalty⟩ offer → solver selection → decision gate → applied
// capacity. Each step is a field of the recorded frame or a lookup of
// one in the run table (the tier is the ladder at the recorded SNR, the
// verdict the gate's own name), so the output is the controller's
// actual decision, not a reconstruction.

// Explanation is one link's decision chain in one round.
type Explanation struct {
	Run     string
	Round   int
	Link    Link
	Rec     LinkRecord
	Ladder  []LadderRung
	Verdict string
}

// Explain locates the dynamic-policy frame of round in the log's run —
// its only run (rwc-experiments records the throughput figure as a
// named one), or else the unnamed run rwc-wansim and rwc-wansimd record
// — and the link named by linkRef (a link name from the table, or a
// numeric edge ID), and returns its decision chain.
func (l *Log) Explain(round int, linkRef string) (*Explanation, error) {
	const policy = "dynamic"
	run := ""
	if len(l.Runs) == 1 {
		run = l.Runs[0].Name
	}
	rt, err := l.run(run)
	if err != nil {
		return nil, err
	}
	linkIdx := -1
	for i, link := range rt.Links {
		if link.Name == linkRef {
			linkIdx = i
			break
		}
	}
	if linkIdx < 0 {
		if edge, err := strconv.Atoi(linkRef); err == nil {
			for i, link := range rt.Links {
				if link.Edge == edge {
					linkIdx = i
					break
				}
			}
		}
	}
	if linkIdx < 0 {
		return nil, fmt.Errorf("flight: run %q has no link %q (names like %q, or an edge ID)",
			run, linkRef, exampleLinkName(rt))
	}
	for i := range l.Frames {
		fr := &l.Frames[i]
		if fr.Run != run || fr.Policy != policy || fr.Round != round {
			continue
		}
		rec := fr.Links[linkIdx]
		return &Explanation{
			Run:     run,
			Round:   round,
			Link:    rt.Links[linkIdx],
			Rec:     rec,
			Ladder:  rt.Ladder,
			Verdict: rt.Verdicts[rec.Verdict],
		}, nil
	}
	return nil, fmt.Errorf("flight: no frame for run %q, policy %q, round %d", run, policy, round)
}

func exampleLinkName(rt *Run) string {
	if len(rt.Links) == 0 {
		return "?"
	}
	return rt.Links[0].Name
}

// tierRungs looks the recorded SNR up in the ladder the way
// modulation.Ladder.FeasibleCapacity does: cur is the last rung whose
// threshold the SNR meets before the first it misses, next that first
// miss (either nil when absent).
func (e *Explanation) tierRungs() (cur, next *LadderRung) {
	for i := range e.Ladder {
		if e.Rec.SNRdB < e.Ladder[i].MinSNRdB {
			return cur, &e.Ladder[i]
		}
		cur = &e.Ladder[i]
	}
	return cur, nil
}

// Format renders the chain as aligned text for the terminal.
func (e *Explanation) Format() string {
	var b strings.Builder
	run := e.Run
	if run == "" {
		run = "(default)"
	}
	fmt.Fprintf(&b, "link %s (edge %d, fiber %d) · run %s · policy dynamic · round %d\n",
		e.Link.Name, e.Link.Edge, e.Link.Fiber, run, e.Round)

	r := e.Rec
	fmt.Fprintf(&b, "  1. SNR sample          %.*f dB (binding wavelength across the fiber)\n", 2, r.SNRdB)

	cur, next := e.tierRungs()
	tier := "below the lowest rung — wavelength dark"
	if cur != nil {
		tier = fmt.Sprintf("tier %g Gbps per wavelength (threshold %g dB", cur.Gbps, cur.MinSNRdB)
		if cur.Format != "" {
			tier += ", " + cur.Format
		}
		tier += ")"
	}
	if next != nil {
		tier += fmt.Sprintf("; next rung %g Gbps needs %g dB", next.Gbps, next.MinSNRdB)
	}
	fmt.Fprintf(&b, "  2. modulation lookup   %s; link feasible %g Gbps\n", tier, r.FeasibleGbps)

	if r.FakeCapGbps > 0 {
		fmt.Fprintf(&b, "  3. fake edge [§3.2]    offered ⟨%g Gbps headroom, penalty %g⟩\n", r.FakeCapGbps, r.FakePenalty)
		if r.FakeFlowGbps > 0 {
			fmt.Fprintf(&b, "  4. solver selection    routed %.3f Gbps over the fake edge, residual %.3f Gbps [Thm 1]\n",
				r.FakeFlowGbps, r.FakeCapGbps-r.FakeFlowGbps)
		} else {
			fmt.Fprintf(&b, "  4. solver selection    no flow on the fake edge — headroom not worth the penalty\n")
		}
	} else {
		fmt.Fprintf(&b, "  3. fake edge [§3.2]    none offered (no qualified headroom above configured)\n")
		fmt.Fprintf(&b, "  4. solver selection    n/a — nothing to select\n")
	}

	fmt.Fprintf(&b, "  5. decision gate       verdict %s\n", e.Verdict)
	fmt.Fprintf(&b, "  6. applied capacity    %g Gbps (link flow %.3f Gbps)\n", r.CapacityGbps, r.FlowGbps)
	return b.String()
}
