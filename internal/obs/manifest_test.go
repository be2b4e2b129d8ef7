package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestManifestJSONSchema(t *testing.T) {
	m := NewManifest("rwc-wansim")
	m.SetSeed(2017)
	m.SetOption("topology", "abilene")
	m.SetOption("rounds", "28")
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
		MetricTotals map[string]float64 `json:"metric_totals"`
	}
	// The schema is exactly these keys: nothing measured in wall time.
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err != nil {
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
	if back.MetricTotals["wan_changes_total"] != 4 {
		t.Fatalf("metric totals = %v", back.MetricTotals)
	}
}

func TestNilManifestIsNoOp(t *testing.T) {
	var m *Manifest
	m.SetSeed(1)
	m.SetOption("a", "b")
	m.AddAlert(AlertRecord{Rule: "r"})
	m.SetMetricTotals(map[string]float64{"a": 1})
	if m.Alerts() != nil {
		t.Fatal("nil manifest recorded alerts")
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
	  "options": {"rounds": "28"},
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
		"tool=rwc-wansim":     1,
		"go_version=go1.22.0": 1,
		"seed":                2017,
		"option:rounds=28":    1,
		`alert:snr_dip{policy="dynamic"}:severity=critical`: 1,
		`metric:wan_rounds_total{policy="dynamic"}`:         12,
		`alert:snr_dip{policy="dynamic"}:fires`:             1,
		`alert:snr_dip{policy="dynamic"}:resolves`:          1,
		`alert:snr_dip{policy="dynamic"}:first_fire_ns`:     151200000000000,
		`alert:snr_dip{policy="dynamic"}:last_fire_ns`:      151200000000000,
		`alert:snr_dip{policy="dynamic"}:active_at_end`:     0,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("manifest flattening wrong:\n got %v\nwant %v", got, want)
	}
	// A manifest written while the schema still had wall-clock phases
	// differs from a current one by exactly one key, however many
	// phases it lists.
	old := strings.Replace(doc, `"seed": 2017,`, `"seed": 2017, "phases": [{"name": "p", "wall_ns": 1}, {"name": "q", "wall_ns": 2}],`, 1)
	got, err = ManifestTotals(strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	want["phases"] = 1
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("manifest with an unknown top-level key:\n got %v\nwant %v", got, want)
	}
}

func TestManifestTotalsRejectsGarbage(t *testing.T) {
	if _, err := ManifestTotals(strings.NewReader("not json")); err == nil {
		t.Fatal("expected error for non-JSON manifest")
	}
}
