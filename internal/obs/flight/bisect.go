package flight

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
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
	// A and B are the two values of Field, as String prints them.
	A, B string
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
		return fmt.Sprintf("first divergence at %s: %s %s vs %s", loc, d.Field, d.A, d.B)
	}
	return fmt.Sprintf("first divergence at %s: link %s, %s %s vs %s", loc, d.Link, d.Field, d.A, d.B)
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
		if !slices.Equal(ra.Verdicts, rb.Verdicts) {
			return Divergence{Found: true, Structural: fmt.Sprintf(
				"run %q names verdicts %q vs %q", ra.Name, ra.Verdicts, rb.Verdicts)}, true
		}
	}
	if len(a.Frames) != len(b.Frames) {
		return Divergence{Found: true, Structural: fmt.Sprintf(
			"%d frames vs %d frames (different rounds or policies?)", len(a.Frames), len(b.Frames))}, true
	}
	return Divergence{}, false
}

// diffFrames digs into two same-key frames whose hashes differ and
// names the first diverging field. The frames' run tables match
// (bisectStructure), so both carry one record per link of a's.
func diffFrames(log *Log, fa, fb *RoundRecord) Divergence {
	d := Divergence{Found: true, Run: fa.Run, Policy: fa.Policy, Round: fa.Round}
	rt, _ := log.run(fa.Run)
	// Per-link state diverges causally before the aggregates computed
	// from it, so scan links first.
	for i := range fa.Links {
		if field, va, vb, ok := diffLink(rt.Verdicts, &fa.Links[i], &fb.Links[i]); ok {
			d.Link, d.Field, d.A, d.B = rt.Links[i].Name, field, va, vb
			return d
		}
	}
	for _, f := range []struct {
		name string
		a, b float64
	}{
		{"offered_gbps", fa.OfferedGbps, fb.OfferedGbps},
		{"shipped_gbps", fa.ShippedGbps, fb.ShippedGbps},
		{"capacity_gbps", fa.CapacityGbps, fb.CapacityGbps},
		{"changes", float64(fa.Changes), float64(fb.Changes)},
	} {
		if f.a != f.b { //nolint:nofloateq // bisect reports exact divergence; tolerance would hide it
			d.Field, d.A, d.B = f.name, formatF(f.a), formatF(f.b)
			return d
		}
	}
	// Hashes differed but every decoded field matches — only possible
	// if the stored hash itself was tampered with.
	d.Field = "hash"
	d.A, d.B = formatF(float64(fa.Hash)), formatF(float64(fb.Hash))
	return d
}

// diffLink returns the first differing field of two link records;
// verdicts names their verdicts.
func diffLink(verdicts []string, a, b *LinkRecord) (field, va, vb string, ok bool) {
	for _, c := range []struct {
		name string
		a, b float64
	}{
		{"snr_db", a.SNRdB, b.SNRdB},
		{"feasible_gbps", a.FeasibleGbps, b.FeasibleGbps},
		{"capacity_gbps", a.CapacityGbps, b.CapacityGbps},
		{"fake_cap_gbps", a.FakeCapGbps, b.FakeCapGbps},
		{"fake_penalty", a.FakePenalty, b.FakePenalty},
		{"flow_gbps", a.FlowGbps, b.FlowGbps},
		{"fake_flow_gbps", a.FakeFlowGbps, b.FakeFlowGbps},
	} {
		if c.a != c.b { //nolint:nofloateq // bisect reports exact divergence; tolerance would hide it
			return c.name, formatF(c.a), formatF(c.b), true
		}
	}
	if a.Verdict != b.Verdict {
		return "verdict", verdicts[a.Verdict], verdicts[b.Verdict], true
	}
	return "", "", "", false
}

// formatF prints a value as %g does.
func formatF(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

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
