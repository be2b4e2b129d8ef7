package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// hostileValues are label values designed to break out of the quoted
// position in the exposition format.
var hostileValues = []string{
	`plain`,
	`back\slash`,
	`quo"te`,
	"new\nline",
	`"} evil_metric 666`,
	`a\"b\\c` + "\n" + `d`,
	``,
}

func TestPrometheusHostileLabelValues(t *testing.T) {
	r := NewRegistry()
	for i, v := range hostileValues {
		r.Counter("hostile_total", "Counter with hostile label values.", L("v", v)).Add(float64(i + 1))
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Every non-comment line must be exactly one sample: name{...} value.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "hostile_total{") {
			t.Fatalf("hostile value smuggled a foreign line into the exposition: %q", line)
		}
	}
	if strings.Count(out, "\n") != len(hostileValues)+2 {
		t.Fatalf("expected %d lines (HELP+TYPE+%d samples), got %d:\n%s",
			len(hostileValues)+2, len(hostileValues), strings.Count(out, "\n"), out)
	}
	// Round-trip: parsing the exposition recovers every original value.
	samples, err := ParsePrometheusText(strings.NewReader(out))
	if err != nil {
		t.Fatalf("exposition with hostile labels does not parse: %v", err)
	}
	got := map[string]float64{}
	for _, s := range samples {
		if s.Name != "hostile_total" || len(s.Labels) != 1 || s.Labels[0].Key != "v" {
			t.Fatalf("unexpected sample %+v", s)
		}
		got[s.Labels[0].Value] = s.Value
	}
	for i, v := range hostileValues {
		if got[v] != float64(i+1) {
			t.Fatalf("value %q did not round-trip: got %v want %d (all: %v)", v, got[v], i+1, got)
		}
	}
}

func TestPrometheusHostileHelpStaysSingleLine(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", "help with\nnewline and \\ backslash").Set(1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("HELP must stay on one line; got %d lines:\n%s", len(lines), buf.String())
	}
	if lines[0] != `# HELP g help with\nnewline and \\ backslash` {
		t.Fatalf("HELP escaping wrong: %q", lines[0])
	}
}

func TestParsePrometheusTextRoundTripsRealRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "c", L("policy", "dynamic")).Add(3)
	r.Counter("c_total", "c", L("policy", "static-100G")).Add(5)
	r.Gauge("g", "g").Set(-2.5)
	h := r.Histogram("h_seconds", "h", []float64{0.1, 1, 10}, L("k", "v"))
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	totals, err := PromTotals(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		`c_total{policy="dynamic"}`:         3,
		`c_total{policy="static-100G"}`:     5,
		`g`:                                 -2.5,
		`h_seconds_bucket{k="v",le="0.1"}`:  1,
		`h_seconds_bucket{k="v",le="1"}`:    2,
		`h_seconds_bucket{k="v",le="10"}`:   3,
		`h_seconds_bucket{k="v",le="+Inf"}`: 4,
		`h_seconds_sum{k="v"}`:              55.55,
		`h_seconds_count{k="v"}`:            4,
	}
	if len(totals) != len(want) {
		t.Fatalf("parsed %d series, want %d: %v", len(totals), len(want), totals)
	}
	for k, v := range want {
		got, ok := totals[k]
		if !ok {
			t.Fatalf("missing series %s in %v", k, totals)
		}
		if got != v { //nolint:nofloateq // exact decimal round-trip through shortest-form formatting
			t.Fatalf("%s = %v, want %v", k, got, v)
		}
	}
}

func TestParsePrometheusTextRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		`name_only`,
		`m{k="v" 1`,
		`m{k=unquoted} 1`,
		`m{k="unterminated} 1`,
		`m{k="bad\q"} 1`,
		`m{="v"} 1`,
		`m{k="v"} notanumber`,
		`m 1 garbage`,
		`m{a="1"} 2 3 4`,
		`m 1 1.5`,
	} {
		if _, err := ParsePrometheusText(strings.NewReader(in)); err == nil {
			t.Fatalf("expected parse error for %q", in)
		}
	}
	// One integer timestamp may follow the value.
	if s, err := ParsePrometheusText(strings.NewReader("m 1 1700000000000")); err != nil || len(s) != 1 || s[0].Value != 1 {
		t.Fatalf("sample with a timestamp: %+v, %v", s, err)
	}
}

// FuzzPromParse: the exposition parser never panics, and every sample
// it accepts survives a round trip — rendered as its Key() and value,
// it parses back to the same key and the same value bits. The seed
// corpus holds a recorded Abilene run, a live scrape with the service
// ledger's rwc_sli_* series, escaped label values and malformed lines.
func FuzzPromParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := ParsePrometheusText(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, s := range samples {
			line := s.Key() + " " + formatValue(s.Value)
			back, err := ParsePrometheusText(strings.NewReader(line))
			if err != nil || len(back) != 1 {
				t.Fatalf("%+v renders as %q, which parses to %+v, %v", s, line, back, err)
			}
			if back[0].Key() != s.Key() || math.Float64bits(back[0].Value) != math.Float64bits(s.Value) {
				t.Fatalf("%q parses back to %q = %v, want %q = %v", line, back[0].Key(), back[0].Value, s.Key(), s.Value)
			}
		}
	})
}
