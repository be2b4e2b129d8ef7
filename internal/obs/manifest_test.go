package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestManifestJSONSchema(t *testing.T) {
	m := &Manifest{
		Tool:      "rwc-wansim",
		GoVersion: "go1.22.0",
		Seed:      2017,
		Options:   map[string]string{"topology": "abilene", "rounds": "28"},
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// The schema is exactly these keys, in this order, with sorted
	// options: what the run was, nothing it ended with and nothing
	// measured in wall time.
	want := `{
  "tool": "rwc-wansim",
  "go_version": "go1.22.0",
  "seed": 2017,
  "options": {
    "rounds": "28",
    "topology": "abilene"
  }
}
`
	if buf.String() != want {
		t.Fatalf("manifest =\n%s\nwant\n%s", buf.String(), want)
	}
}

func TestManifestTotalsFlattens(t *testing.T) {
	doc := `{
	  "tool": "rwc-wansim",
	  "go_version": "go1.22.0",
	  "seed": 2017,
	  "options": {"rounds": "28"}
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
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("manifest flattening wrong:\n got %v\nwant %v", got, want)
	}
	// A manifest written while the schema still had wall-clock phases,
	// or still copied the run's alert summaries and metric totals,
	// differs from a current one by exactly one key per such field,
	// however many entries it lists.
	for _, tc := range []struct {
		extra string
		keys  []string
	}{
		{`"phases": [{"name": "p", "wall_ns": 1}, {"name": "q", "wall_ns": 2}],`, []string{"phases"}},
		{`"alerts": [{"rule": "snr_dip", "series": "policy=\"dynamic\"", "severity": "critical",
		   "fires": 1, "resolves": 1, "first_fire_ns": 151200000000000, "last_fire_ns": 151200000000000}],
		  "metric_totals": {"wan_rounds_total{policy=\"dynamic\"}": 12, "wan_changes_total": 4},`,
			[]string{"alerts", "metric_totals"}},
	} {
		old := strings.Replace(doc, `"seed": 2017,`, `"seed": 2017, `+tc.extra, 1)
		got, err = ManifestTotals(strings.NewReader(old))
		if err != nil {
			t.Fatal(err)
		}
		wantOld := map[string]float64{}
		for k, v := range want {
			wantOld[k] = v
		}
		for _, k := range tc.keys {
			wantOld[k] = 1
		}
		if !reflect.DeepEqual(got, wantOld) {
			t.Fatalf("manifest with unknown top-level keys %v:\n got %v\nwant %v", tc.keys, got, wantOld)
		}
	}
}

func TestManifestTotalsRejectsGarbage(t *testing.T) {
	if _, err := ManifestTotals(strings.NewReader("not json")); err == nil {
		t.Fatal("expected error for non-JSON manifest")
	}
}
