package wan

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/alert"
)

// TestTraceHasNoRoundSpans: a round opens no trace span (its duration is
// the wan.round/<policy> perf phase; on the sim clock a round has length
// zero), and dropping the span moved nothing else. The reference is the
// trace this scenario wrote while rounds still opened a "wan.round"
// span: with those lines removed, and the seq/span numbering they
// shifted ignored, it is the trace of today — every wan.order and
// alert.* event, in the same order with the same content. The reference
// predates capacity_below_slo evaluating without a history store, so
// that rule's events, which it lacks, are counted and then left out.
func TestTraceHasNoRoundSpans(t *testing.T) {
	cfg := testSimConfig(t)
	cfg.Alerts = alert.DefaultWANRules()
	o := obs.New()
	cfg.Obs = o
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A two-round loss of light on one wavelength, so alerts fire and
	// resolve in every policy.
	for _, r := range []int{7, 8} {
		if err := sim.OverrideSNR(2, 1, r, 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sim.RunPolicies([]Policy{PolicyStatic100, PolicyStaticMax, PolicyDynamic}); err != nil {
		t.Fatal(err)
	}

	// events decodes a JSONL trace, dropping wan.round lines,
	// capacity_below_slo events and the seq/span fields.
	slo := 0
	events := func(jsonl []byte) []map[string]any {
		var out []map[string]any
		for _, line := range strings.Split(strings.TrimSpace(string(jsonl)), "\n") {
			var ev map[string]any
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("trace line %q: %v", line, err)
			}
			if ev["name"] == "wan.round" {
				continue
			}
			if attrs, _ := ev["attrs"].(map[string]any); attrs["rule"] == "capacity_below_slo" {
				slo++
				continue
			}
			delete(ev, "seq")
			delete(ev, "span")
			out = append(out, ev)
		}
		return out
	}
	ref, err := os.ReadFile("testdata/trace_with_round_spans.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	got, want := events(traceBytes(t, o)), events(ref)
	// One fire and one resolve per policy.
	if slo != 6 {
		t.Fatalf("trace holds %d capacity_below_slo events, want 6", slo)
	}
	kinds := make(map[string]int)
	for _, ev := range got {
		if ev["kind"] != "event" {
			t.Fatalf("wan run emitted a %v trace line: %v", ev["kind"], ev)
		}
		kinds[ev["name"].(string)]++
	}
	if kinds["wan.order"] == 0 || kinds["alert.fire"] == 0 || kinds["alert.resolve"] == 0 {
		t.Fatalf("scenario must exercise orders and alerts, got %v", kinds)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace differs from the reference beyond the removed wan.round spans: %d events, want %d", len(got), len(want))
	}
}
