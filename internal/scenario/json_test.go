package scenario

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/controller"
)

const validJSON = `{
  "nodes": ["SEA", "DEN", "NYC"],
  "links": [
    {"from": "SEA", "to": "DEN", "weight": 1, "bidir": true},
    {"from": "DEN", "to": "NYC", "weight": 2}
  ],
  "rounds": 5,
  "baseline_snr_db": 16,
  "demands": [{"from": "SEA", "to": "NYC", "gbps": 80, "priority": 1}],
  "events": [{"round": 2, "from": "SEA", "to": "DEN", "snr_db": 4.2}]
}`

func TestLoadJSONValid(t *testing.T) {
	g, s, err := LoadJSON(strings.NewReader(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 3 { // bidir SEA-DEN (2) + one-way DEN-NYC
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if s.Rounds != 5 || s.BaselinedB != 16 {
		t.Fatalf("script: %+v", s)
	}
	if len(s.Demands) != 1 || s.Demands[0].Volume != 80 || s.Demands[0].Priority != 1 {
		t.Fatalf("demands: %+v", s.Demands)
	}
	if len(s.Events) != 1 || s.Events[0].Round != 2 || s.Events[0].SNRdB != 4.2 {
		t.Fatalf("events: %+v", s.Events)
	}
	// The event must reference the SEA->DEN directed edge.
	e := g.Edge(s.Events[0].Link)
	if g.NodeName(e.From) != "SEA" || g.NodeName(e.To) != "DEN" {
		t.Fatalf("event edge %s->%s", g.NodeName(e.From), g.NodeName(e.To))
	}
}

func TestLoadJSONRunsEndToEnd(t *testing.T) {
	g, s, err := LoadJSON(strings.NewReader(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	// Demand SEA->NYC traverses the degraded SEA-DEN link; both runs
	// complete and dynamic wins.
	dyn, bin, err := CompareDynamicBinary(g, 100, controller.Config{}, s)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.MeanSatisfied < bin.MeanSatisfied {
		t.Fatalf("dynamic %v < binary %v", dyn.MeanSatisfied, bin.MeanSatisfied)
	}
}

// TestSampleReportMatchesGolden replays testdata/sample.json through
// the controller and the binary up/down rule and compares the
// round-by-round report with testdata/sample.out, written before the
// decision gate was shared with the WAN simulator.
func TestSampleReportMatchesGolden(t *testing.T) {
	f, err := os.Open("testdata/sample.json")
	if err != nil {
		t.Fatal(err)
	}
	g, script, err := LoadJSON(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	dynamic, binary, err := CompareDynamicBinary(g, 100, controller.Config{}, script)
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "scenario: %d nodes, %d links, %d rounds, %d events\n\n",
		g.NumNodes(), g.NumEdges(), script.Rounds, len(script.Events))
	fmt.Fprintln(&b, "round  offered  dynamic shipped  binary shipped  dynamic orders")
	for i, d := range dynamic.Rounds {
		fmt.Fprintf(&b, "%5d  %7.0f  %15.0f  %14.0f  %d\n",
			d.Round, d.Offered, d.Shipped, binary.Rounds[i].Shipped, len(d.Orders))
		for _, o := range d.Orders {
			e := g.Edge(o.Edge)
			fmt.Fprintf(&b, "       %s %s->%s: %.0fG -> %.0fG\n",
				o.Kind, g.NodeName(e.From), g.NodeName(e.To), float64(o.From), float64(o.To))
		}
	}
	fmt.Fprintf(&b, "\nmean satisfied: dynamic %.1f%%, binary %.1f%%\n",
		100*dynamic.MeanSatisfied, 100*binary.MeanSatisfied)
	fmt.Fprintf(&b, "dark link-rounds: dynamic %d, binary %d\n",
		dynamic.DarkLinkRounds, binary.DarkLinkRounds)
	fmt.Fprintf(&b, "modulation changes: dynamic %d, binary %d\n",
		dynamic.TotalChanges, binary.TotalChanges)

	want, err := os.ReadFile("testdata/sample.out")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("report differs from testdata/sample.out:\n--- got\n%s--- want\n%s", got, want)
	}
}

func TestLoadJSONErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":         `{nope}`,
		"unknown field":   `{"nodes": ["a"], "bogus": 1}`,
		"no nodes":        `{"rounds": 3}`,
		"dup node":        `{"nodes": ["a", "a"], "rounds": 1}`,
		"unknown link":    `{"nodes": ["a"], "links": [{"from": "a", "to": "zz"}], "rounds": 1}`,
		"dup link":        `{"nodes": ["a","b"], "links": [{"from":"a","to":"b"},{"from":"a","to":"b"}], "rounds": 1}`,
		"unknown demand":  `{"nodes": ["a","b"], "links": [{"from":"a","to":"b"}], "rounds": 1, "demands": [{"from":"zz","to":"b","gbps":1}]}`,
		"event no link":   `{"nodes": ["a","b"], "links": [{"from":"a","to":"b"}], "rounds": 2, "events": [{"round":1,"from":"b","to":"a","snr_db":5}]}`,
		"event bad round": `{"nodes": ["a","b"], "links": [{"from":"a","to":"b"}], "rounds": 2, "events": [{"round":9,"from":"a","to":"b","snr_db":5}]}`,
		"zero rounds":     `{"nodes": ["a","b"], "links": [{"from":"a","to":"b"}], "rounds": 0}`,
		"self demand":     `{"nodes": ["a","b"], "links": [{"from":"a","to":"b"}], "rounds": 1, "demands": [{"from":"a","to":"a","gbps":1}]}`,
	}
	for name, in := range cases {
		if _, _, err := LoadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLoadJSONDefaultsWeight(t *testing.T) {
	g, _, err := LoadJSON(strings.NewReader(
		`{"nodes": ["a","b"], "links": [{"from":"a","to":"b"}], "rounds": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	if g.Edge(0).Weight != 1 {
		t.Fatalf("default weight = %v", g.Edge(0).Weight)
	}
}
