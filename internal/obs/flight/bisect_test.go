package flight

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/gate"
)

// logFrom writes and re-reads a recorder, failing on error.
func logFrom(t *testing.T, rec *Recorder) *Log {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteLog(&buf, Meta{}, Trailer{}); err != nil {
		t.Fatal(err)
	}
	log, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func TestBisectIdenticalLogs(t *testing.T) {
	a := logFrom(t, record(t, 5, "dynamic", "static-100G"))
	b := logFrom(t, record(t, 5, "dynamic", "static-100G"))
	d := Bisect(a, b)
	if d.Found {
		t.Fatalf("identical logs diverge: %s", d)
	}
	if !strings.Contains(d.String(), "identical") {
		t.Fatalf("identical rendering = %q", d.String())
	}
}

func TestBisectNamesFirstDivergingRoundAndLink(t *testing.T) {
	mk := func(dip bool) *Log {
		rec := New()
		if err := rec.Bind("", testLinks(), testLadder(), testVerdicts, 0, testInterval); err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{"dynamic", "static-100G"} {
			for r := 0; r < 6; r++ {
				vary := 0.0
				if dip && r >= 3 {
					vary = -2.5 // SNR delta on link 1 from round 3 on
				}
				mustRecord(t, rec, testFrame(p, r, vary))
			}
		}
		return logFrom(t, rec)
	}
	d := Bisect(mk(false), mk(true))
	if !d.Found || d.Structural != "" {
		t.Fatalf("divergence not found: %+v", d)
	}
	// Canonical order: policy "dynamic" sorts first; the first touched
	// round is 3; the varied link is index 1 ("b->a"); the first field
	// in causal order is the SNR sample.
	if d.Policy != "dynamic" || d.Round != 3 || d.Link != "b->a" || d.Field != "snr_db" {
		t.Fatalf("divergence = %+v, want dynamic/round 3/b->a/snr_db", d)
	}
	if d.A == d.B {
		t.Fatalf("values not reported: %+v", d)
	}
	if !strings.Contains(d.String(), "round 3") || !strings.Contains(d.String(), "b->a") {
		t.Fatalf("rendering lost the location: %q", d.String())
	}
}

func TestBisectStructuralDifferences(t *testing.T) {
	base := logFrom(t, record(t, 3, "dynamic"))

	// Different round count.
	longer := logFrom(t, record(t, 4, "dynamic"))
	if d := Bisect(base, longer); !d.Found || d.Structural == "" {
		t.Fatalf("frame-count mismatch not structural: %+v", d)
	}

	// Different link table.
	other := New()
	links := testLinks()
	links[2].Name = "b->z"
	if err := other.Bind("", links, testLadder(), testVerdicts, 0, testInterval); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		mustRecord(t, other, testFrame("dynamic", r, 0))
	}
	if d := Bisect(base, logFrom(t, other)); !d.Found || !strings.Contains(d.Structural, "b->z") {
		t.Fatalf("link-table mismatch not reported: %+v", d)
	}

	// Different verdict names: the same verdict byte means another
	// verdict, so the frames are not compared.
	renamed := New()
	if err := renamed.Bind("", testLinks(), testLadder(), append([]string{"calm"}, testVerdicts[1:]...), 0, testInterval); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		mustRecord(t, renamed, testFrame("dynamic", r, 0))
	}
	if d := Bisect(base, logFrom(t, renamed)); !d.Found || !strings.Contains(d.Structural, "calm") {
		t.Fatalf("verdict-name mismatch not reported: %+v", d)
	}
}

func TestExplainChain(t *testing.T) {
	log := logFrom(t, record(t, 3, "dynamic"))

	e, err := log.Explain(1, "a->b")
	if err != nil {
		t.Fatal(err)
	}
	if e.Link.Edge != 0 || e.Verdict != "upgraded" {
		t.Fatalf("explanation = %+v", e)
	}
	out := e.Format()
	for _, want := range []string{
		"link a->b (edge 0, fiber 0)",
		"round 1",
		"1. SNR sample",
		"16.10 dB",
		"2. modulation lookup",
		"tier 200 Gbps",
		"threshold 15.5 dB",
		"3. fake edge",
		"⟨200 Gbps headroom, penalty 1⟩",
		"4. solver selection",
		"routed 50.000 Gbps",
		"5. decision gate",
		"verdict upgraded",
		"6. applied capacity",
		"200 Gbps",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}

	// A dark link: lookup below the lowest rung, no fake edge, flapped
	// down by the gate.
	e, err = log.Explain(0, "b->c")
	if err != nil {
		t.Fatal(err)
	}
	out = e.Format()
	for _, want := range []string{"below the lowest rung", "none offered", "verdict forced-downgrade", "next rung 50 Gbps needs 3 dB"} {
		if !strings.Contains(out, want) {
			t.Errorf("dark-link explain missing %q:\n%s", want, out)
		}
	}

	// Lookup by edge ID string.
	if e, err = log.Explain(0, "1"); err != nil || e.Link.Name != "b->a" {
		t.Fatalf("edge-ID lookup = %+v, %v", e, err)
	}

	// Errors: unknown link, round.
	if _, err := log.Explain(0, "nope"); err == nil {
		t.Error("unknown link accepted")
	}
	if _, err := log.Explain(99, "a->b"); err == nil {
		t.Error("unknown round accepted")
	}
}

func TestLogSummary(t *testing.T) {
	log := logFrom(t, record(t, 2, "dynamic", "static-max"))
	s := log.Summary()
	for _, want := range []string{"1 run(s)", "4 frame(s)", "policy dynamic: 2 round(s)", "policy static-max: 2 round(s)", "3 links"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestEveryGateVerdictRoundTrips: a frame whose links carry each of the
// gate's verdicts survives WriteLog/ReadLog, and explain, the JSONL
// export and bisect all print every one under the gate's own name.
func TestEveryGateVerdictRoundTrips(t *testing.T) {
	mk := func(shift int) *Log {
		links := make([]Link, len(gate.VerdictNames))
		frame := RoundRecord{Policy: "dynamic", Links: make([]LinkRecord, len(links))}
		for i := range links {
			links[i] = Link{Edge: i, Name: fmt.Sprintf("n%d->n%d", i, i+1), Fiber: i}
			frame.Links[i] = LinkRecord{LinkIndex: i, SNRdB: 16, Verdict: uint8((i + shift) % len(links))}
		}
		rec := New()
		if err := rec.Bind("", links, testLadder(), testVerdicts, 0, testInterval); err != nil {
			t.Fatal(err)
		}
		mustRecord(t, rec, frame)
		return logFrom(t, rec)
	}
	log := mk(0)
	if len(log.Frames) != 1 || !slices.Equal(log.Runs[0].Verdicts, testVerdicts) {
		t.Fatalf("decoded %d frames, verdict names %q", len(log.Frames), log.Runs[0].Verdicts)
	}
	var jl bytes.Buffer
	if err := log.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	for i, name := range gate.VerdictNames {
		v := gate.Verdict(i)
		if v.String() != name || int(log.Frames[0].Links[i].Verdict) != i {
			t.Fatalf("link %d decoded verdict %d; gate names %d %q", i, log.Frames[0].Links[i].Verdict, i, v)
		}
		e, err := log.Explain(0, fmt.Sprintf("n%d->n%d", i, i+1))
		if err != nil {
			t.Fatal(err)
		}
		if out := e.Format(); !strings.Contains(out, "verdict "+v.String()+"\n") {
			t.Errorf("explain of link %d does not name %q:\n%s", i, v, out)
		}
		if !strings.Contains(jl.String(), `"verdict":"`+v.String()+`"`) {
			t.Errorf("JSONL lacks verdict %q: %s", v, jl.String())
		}
	}
	d := Bisect(log, mk(1))
	if d.Link != "n0->n1" || d.Field != "verdict" || d.A != "steady" || d.B != "pinned" {
		t.Fatalf("bisect = %+v, want link n0->n1 verdict steady vs pinned", d)
	}
}
