package flight

import (
	"bytes"
	"fmt"
	"strings"
)

// This file implements flight-log bisection: given two logs, find the
// first frame (canonical order: run, policy, round) whose state hash
// diverges, then the first link and field inside it. Because every
// frame is hashed over the complete round state, the first hash
// mismatch IS the first behavioral divergence — everything before it
// is proven identical.

// Divergence reports where two logs first differ.
type Divergence struct {
	// Found is false when the logs are behaviorally identical.
	Found bool
	// Structural is non-empty when the logs differ in shape (runs,
	// link tables, frame sets) rather than in per-round values.
	Structural string
	// Run, Policy, Round locate the first diverging frame.
	Run    string
	Policy string
	Round  int
	// Link names the first diverging link ("" when a round aggregate
	// diverges first); Field names the first diverging field.
	Link  string
	Field string
	// A and B are the two values of Field (for numeric fields).
	A, B float64
}

// String renders the divergence for terminal output.
func (d Divergence) String() string {
	if !d.Found {
		return "flight logs identical"
	}
	if d.Structural != "" {
		return "structural divergence: " + d.Structural
	}
	loc := fmt.Sprintf("policy %q, round %d", d.Policy, d.Round)
	if d.Run != "" {
		loc = fmt.Sprintf("run %q, %s", d.Run, loc)
	}
	if d.Link == "" {
		return fmt.Sprintf("first divergence at %s: %s %g vs %g", loc, d.Field, d.A, d.B)
	}
	return fmt.Sprintf("first divergence at %s: link %s, %s %g vs %g", loc, d.Link, d.Field, d.A, d.B)
}

// frameKey orders/equates frames by identity, not content.
func frameKey(r *RoundRecord) string {
	return fmt.Sprintf("%s\x00%s\x00%09d", r.Run, r.Policy, r.Round)
}

// Bisect compares two decoded logs and reports the first divergence.
// Frames are walked in canonical order, so "first" means the earliest
// round of the lexically first diverging (run, policy) pair — for
// same-configuration runs this is exactly the first simulated round
// whose state differs.
func Bisect(a, b *Log) Divergence {
	if d, ok := bisectStructure(a, b); ok {
		return d
	}
	for i := range a.Frames {
		fa, fb := &a.Frames[i], &b.Frames[i]
		if frameKey(fa) != frameKey(fb) {
			return Divergence{Found: true, Structural: fmt.Sprintf(
				"frame %d is (run %q, policy %q, round %d) in one log and (run %q, policy %q, round %d) in the other",
				i, fa.Run, fa.Policy, fa.Round, fb.Run, fb.Policy, fb.Round)}
		}
		if fa.Hash == fb.Hash {
			continue
		}
		d := diffFrames(a, fa, fb)
		return d
	}
	return Divergence{}
}

// bisectStructure compares everything that must match before per-round
// comparison is meaningful.
func bisectStructure(a, b *Log) (Divergence, bool) {
	if len(a.Runs) != len(b.Runs) {
		return Divergence{Found: true, Structural: fmt.Sprintf("%d runs vs %d runs", len(a.Runs), len(b.Runs))}, true
	}
	for i := range a.Runs {
		ra, rb := &a.Runs[i], &b.Runs[i]
		if ra.Name != rb.Name {
			return Divergence{Found: true, Structural: fmt.Sprintf("run %d named %q vs %q", i, ra.Name, rb.Name)}, true
		}
		if len(ra.Links) != len(rb.Links) {
			return Divergence{Found: true, Structural: fmt.Sprintf(
				"run %q has %d links vs %d", ra.Name, len(ra.Links), len(rb.Links))}, true
		}
		for j := range ra.Links {
			if ra.Links[j] != rb.Links[j] {
				return Divergence{Found: true, Structural: fmt.Sprintf(
					"run %q link %d is %q (edge %d) vs %q (edge %d) — different topologies",
					ra.Name, j, ra.Links[j].Name, ra.Links[j].Edge, rb.Links[j].Name, rb.Links[j].Edge)}, true
			}
		}
	}
	if len(a.Frames) != len(b.Frames) {
		return Divergence{Found: true, Structural: fmt.Sprintf(
			"%d frames vs %d frames (different rounds or policies?)", len(a.Frames), len(b.Frames))}, true
	}
	return Divergence{}, false
}

// diffFrames digs into two same-key frames whose hashes differ and
// names the first diverging field.
func diffFrames(log *Log, fa, fb *RoundRecord) Divergence {
	d := Divergence{Found: true, Run: fa.Run, Policy: fa.Policy, Round: fa.Round}
	agg := []struct {
		name string
		a, b float64
	}{
		{"offered_gbps", fa.OfferedGbps, fb.OfferedGbps},
		{"shipped_gbps", fa.ShippedGbps, fb.ShippedGbps},
		{"capacity_gbps", fa.CapacityGbps, fb.CapacityGbps},
		{"changes", float64(fa.Changes), float64(fb.Changes)},
	}
	// Per-link state diverges causally before the aggregates computed
	// from it, so scan links first.
	n := len(fa.Links)
	if len(fb.Links) < n {
		n = len(fb.Links)
	}
	for i := 0; i < n; i++ {
		la, lb := &fa.Links[i], &fb.Links[i]
		if field, va, vb, ok := diffLink(la, lb); ok {
			d.Link = linkName(log, fa.Run, la.LinkIndex)
			d.Field = field
			d.A, d.B = va, vb
			return d
		}
	}
	if len(fa.Links) != len(fb.Links) {
		d.Field = "links"
		d.A, d.B = float64(len(fa.Links)), float64(len(fb.Links))
		return d
	}
	for _, f := range agg {
		if f.a != f.b { //nolint:nofloateq // bisect reports exact divergence; tolerance would hide it
			d.Field = f.name
			d.A, d.B = f.a, f.b
			return d
		}
	}
	// Hashes differed but every decoded field matches — only possible
	// if the stored hash itself was tampered with.
	d.Field = "hash"
	d.A, d.B = float64(fa.Hash), float64(fb.Hash)
	return d
}

// diffLink returns the first differing field of two link records.
func diffLink(a, b *LinkRecord) (field string, va, vb float64, ok bool) {
	checks := []struct {
		name string
		a, b float64
	}{
		{"snr_db", a.SNRdB, b.SNRdB},
		{"tier_gbps", a.TierGbps, b.TierGbps},
		{"feasible_gbps", a.FeasibleGbps, b.FeasibleGbps},
		{"capacity_gbps", a.CapacityGbps, b.CapacityGbps},
		{"fake", boolF(a.Fake), boolF(b.Fake)},
		{"fake_cap_gbps", a.FakeCapGbps, b.FakeCapGbps},
		{"fake_penalty", a.FakePenalty, b.FakePenalty},
		{"flow_gbps", a.FlowGbps, b.FlowGbps},
		{"fake_flow_gbps", a.FakeFlowGbps, b.FakeFlowGbps},
		{"residual_gbps", a.ResidualGbps, b.ResidualGbps},
		{"verdict", float64(a.Verdict), float64(b.Verdict)},
	}
	if a.LinkIndex != b.LinkIndex {
		return "link_index", float64(a.LinkIndex), float64(b.LinkIndex), true
	}
	for _, c := range checks {
		if c.a != c.b { //nolint:nofloateq // bisect reports exact divergence; tolerance would hide it
			return c.name, c.a, c.b, true
		}
	}
	return "", 0, 0, false
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func linkName(log *Log, run string, idx int) string {
	rt, err := log.run(run)
	if err != nil || idx < 0 || idx >= len(rt.Links) {
		return fmt.Sprintf("link#%d", idx)
	}
	return rt.Links[idx].Name
}

// Summary renders a short human description of a log for `replay`
// without output flags.
func (l *Log) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flight log: tool %q seed %d, %d run(s), %d frame(s), link budget %d\n",
		l.Meta.Tool, l.Meta.Seed, len(l.Runs), len(l.Frames), l.MaxLinks)
	for _, run := range l.Runs {
		name := run.Name
		if name == "" {
			name = "(default)"
		}
		fmt.Fprintf(&b, "  run %s: %d links (%d with labeled series)\n", name, len(run.Links), run.Admitted)
	}
	policies := map[string]int{}
	var order []string
	for i := range l.Frames {
		p := l.Frames[i].Policy
		if policies[p] == 0 {
			order = append(order, p)
		}
		policies[p]++
	}
	for _, p := range order {
		fmt.Fprintf(&b, "  policy %s: %d round(s)\n", p, policies[p])
	}
	if len(l.Trailer.Metrics) > 0 {
		// Every family has one TYPE line, and no other line starts so.
		families := bytes.Count(l.Trailer.Metrics, []byte("\n# TYPE "))
		if bytes.HasPrefix(l.Trailer.Metrics, []byte("# TYPE ")) {
			families++
		}
		fmt.Fprintf(&b, "  trailer: %d metric families, %d trace events\n",
			families, bytes.Count(l.Trailer.Trace, []byte("\n")))
	}
	return b.String()
}
