package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestManifestJSONSchema(t *testing.T) {
	m := NewManifest("rwc-wansim")
	m.SetSeed(2017)
	m.SetOption("topology", "abilene")
	m.SetOption("rounds", "28")
	m.AddPhase("dynamic/round000", 1500*time.Microsecond)
	m.AddPhase("dynamic/round001", 2*time.Millisecond)
	m.SetMetricTotals(map[string]float64{"wan_changes_total": 4})

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back struct {
		Tool         string             `json:"tool"`
		GoVersion    string             `json:"go_version"`
		Seed         uint64             `json:"seed"`
		Options      map[string]string  `json:"options"`
		Phases       []PhaseRecord      `json:"phases"`
		MetricTotals map[string]float64 `json:"metric_totals"`
	}
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v\n%s", err, buf.String())
	}
	if back.Tool != "rwc-wansim" || back.Seed != 2017 {
		t.Fatalf("tool/seed = %q/%d", back.Tool, back.Seed)
	}
	if back.GoVersion == "" {
		t.Fatal("go_version empty")
	}
	if back.Options["topology"] != "abilene" || back.Options["rounds"] != "28" {
		t.Fatalf("options = %v", back.Options)
	}
	if len(back.Phases) != 2 || back.Phases[0].Name != "dynamic/round000" || back.Phases[0].WallNs != 1500000 {
		t.Fatalf("phases = %+v", back.Phases)
	}
	if back.MetricTotals["wan_changes_total"] != 4 {
		t.Fatalf("metric totals = %v", back.MetricTotals)
	}
}

func TestNilManifestIsNoOp(t *testing.T) {
	var m *Manifest
	m.SetSeed(1)
	m.SetOption("a", "b")
	m.AddPhase("x", time.Second)
	m.SetMetricTotals(map[string]float64{"a": 1})
	if m.Phases() != nil {
		t.Fatal("nil manifest recorded phases")
	}
	if err := m.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestManifestTotalsFlattens(t *testing.T) {
	doc := `{
	  "tool": "rwc-wansim",
	  "go_version": "go1.22.0",
	  "seed": 2017,
	  "phases": [{"name": "p", "wall_ns": 123}],
	  "alerts": [
	    {"rule": "snr_dip", "series": "policy=\"dynamic\"", "severity": "critical",
	     "fires": 1, "resolves": 1, "first_fire_ns": 151200000000000, "last_fire_ns": 151200000000000}
	  ],
	  "metric_totals": {"wan_rounds_total{policy=\"dynamic\"}": 12}
	}`
	got, err := ManifestTotals(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"seed": 2017,
		`metric:wan_rounds_total{policy="dynamic"}`:     12,
		`alert:snr_dip{policy="dynamic"}:fires`:         1,
		`alert:snr_dip{policy="dynamic"}:resolves`:      1,
		`alert:snr_dip{policy="dynamic"}:first_fire_ns`: 151200000000000,
		`alert:snr_dip{policy="dynamic"}:last_fire_ns`:  151200000000000,
		`alert:snr_dip{policy="dynamic"}:active_at_end`: 0,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("manifest flattening wrong:\n got %v\nwant %v", got, want)
	}
	// Wall-clock phases must not appear: two otherwise identical runs
	// always differ there.
	for k := range got {
		if strings.Contains(k, "phase") || strings.Contains(k, "wall") {
			t.Fatalf("wall-clock key %s leaked into manifest totals", k)
		}
	}
}

func TestManifestTotalsRejectsGarbage(t *testing.T) {
	if _, err := ManifestTotals(strings.NewReader("not json")); err == nil {
		t.Fatal("expected error for non-JSON manifest")
	}
}
