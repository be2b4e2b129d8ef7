package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("orders_total", "orders issued", L("kind", "upgrade"))
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters only go up
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	// Same name+labels returns the same series.
	again := r.Counter("orders_total", "orders issued", L("kind", "upgrade"))
	again.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("shared series = %v, want 4", got)
	}
	g := r.Gauge("capacity_gbps", "capacity")
	g.Set(100)
	g.Add(-25)
	if got := g.Value(); got != 75 {
		t.Fatalf("gauge = %v, want 75", got)
	}
}

func TestLabelOrderIsCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", L("b", "2"), L("a", "1"))
	b := r.Counter("x_total", "", L("a", "1"), L("b", "2"))
	a.Inc()
	b.Inc()
	if got := a.Value(); got != 2 {
		t.Fatalf("label order created distinct series: %v", got)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering as gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("solve_seconds", "solve time", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`solve_seconds_bucket{le="0.1"} 1`,
		`solve_seconds_bucket{le="1"} 3`,
		`solve_seconds_bucket{le="10"} 4`,
		`solve_seconds_bucket{le="+Inf"} 5`,
		`solve_seconds_sum 56.05`,
		`solve_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusExpositionShapeAndOrdering(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("zz_total", "last family").Add(1)
		r.Counter("aa_total", "first family", L("policy", "dynamic")).Add(2)
		r.Counter("aa_total", "first family", L("policy", "static")).Add(3)
		r.Gauge("mid_gauge", "a gauge").Set(4.5)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("two identical registries rendered differently:\n%s\n---\n%s", a.String(), b.String())
	}
	out := a.String()
	// Families sorted by name; series sorted by label signature.
	iAA := strings.Index(out, "# TYPE aa_total")
	iMid := strings.Index(out, "# TYPE mid_gauge")
	iZZ := strings.Index(out, "# TYPE zz_total")
	if !(iAA >= 0 && iAA < iMid && iMid < iZZ) {
		t.Fatalf("families out of order:\n%s", out)
	}
	iDyn := strings.Index(out, `aa_total{policy="dynamic"} 2`)
	iSta := strings.Index(out, `aa_total{policy="static"} 3`)
	if !(iDyn >= 0 && iDyn < iSta) {
		t.Fatalf("series out of order:\n%s", out)
	}
	// Every non-comment line parses as `name{labels} value`.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("unparseable exposition line %q", line)
		}
	}
}

func TestSnapshotAndTotals(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "").Add(2)
	r.Counter("a_total", "", L("k", "v")).Add(1)
	r.Histogram("h_seconds", "", []float64{1}).Observe(0.5)
	snaps := r.Snapshot()
	if len(snaps) != 3 {
		t.Fatalf("snapshot has %d series, want 3", len(snaps))
	}
	if snaps[0].Name != "a_total" || snaps[1].Name != "b_total" || snaps[2].Name != "h_seconds" {
		t.Fatalf("snapshot order: %v %v %v", snaps[0].Name, snaps[1].Name, snaps[2].Name)
	}
	totals := r.Totals()
	if totals[`a_total{k="v"}`] != 1 || totals["b_total"] != 2 {
		t.Fatalf("totals = %v", totals)
	}
	if totals["h_seconds_sum"] != 0.5 || totals["h_seconds_count"] != 1 {
		t.Fatalf("histogram totals = %v", totals)
	}
}

func TestRegistryJSONViaSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "", L("k", "v")).Add(1)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back []SeriesSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Name != "a_total" || back[0].Value != 1 {
		t.Fatalf("JSON round trip = %+v", back)
	}
}

func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	c.Inc()
	c.Add(1)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g := r.Gauge("y", "")
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge accumulated")
	}
	h := r.Histogram("z", "", []float64{1})
	h.Observe(1)
	if h != nil {
		t.Fatal("nil registry returned a histogram")
	}
	if r.Snapshot() != nil || r.Totals() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}
