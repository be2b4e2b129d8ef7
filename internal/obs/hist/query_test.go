package hist

import (
	"testing"
	"time"

	"repro/internal/obs"
)

func queryFixture(t *testing.T) *Store {
	t.Helper()
	st := New(Options{})
	for _, pol := range []string{"run", "walk"} {
		h := appender(st.Root(), "wan_snr_min_db", []obs.Label{obs.L("policy", pol)}, "gauge")
		for r := 0; r < 8; r++ {
			v := 15.0
			if pol == "run" && (r == 4 || r == 5) {
				v = 11.0 // the §2.3 dip
			}
			h(time.Duration(r)*6*time.Hour, v)
		}
	}
	c := appender(st.Root(), "wan_rounds_total", nil, "counter")
	for r := 0; r < 8; r++ {
		c(time.Duration(r)*6*time.Hour, float64(r+1))
	}
	return st
}

func one(t *testing.T, st *Store, q Query) Result {
	t.Helper()
	res, err := st.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("query %+v matched %d series, want 1", q, len(res))
	}
	return res[0]
}

func TestQuerySelectorMatching(t *testing.T) {
	st := queryFixture(t)
	res, err := st.Query(Query{Selector: "wan_snr_min_db", ToNs: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("bare name matched %d series, want 2", len(res))
	}
	// Canonical order: label sets sort by key rendering.
	if res[0].Labels["policy"] != "run" || res[1].Labels["policy"] != "walk" {
		t.Fatalf("order = %v,%v want run,walk", res[0].Labels, res[1].Labels)
	}
	r := one(t, st, Query{Selector: `wan_snr_min_db{policy="walk"}`, ToNs: -1})
	if r.Labels["policy"] != "walk" {
		t.Fatalf("labeled selector matched %v", r.Labels)
	}
	if _, err := st.Query(Query{Selector: `bad{policy=run}`, ToNs: -1}); err == nil {
		t.Fatal("unquoted label value should error")
	}
	if _, err := st.Query(Query{Selector: "", ToNs: -1}); err == nil {
		t.Fatal("empty selector should error")
	}
}

func TestQueryRange(t *testing.T) {
	st := queryFixture(t)
	r := one(t, st, Query{
		Selector: `wan_snr_min_db{policy="run"}`,
		FromNs:   (24 * time.Hour).Nanoseconds(),
		ToNs:     (30 * time.Hour).Nanoseconds(),
	})
	// [24h, 30h] keeps rounds 4 and 5 — the dip.
	if len(r.Samples) != 2 || r.Samples[0].V != 11 || r.Samples[1].V != 11 {
		t.Fatalf("range = %+v, want the two dip samples", r.Samples)
	}
}

func TestQueryAggregations(t *testing.T) {
	st := queryFixture(t)
	sel := `wan_snr_min_db{policy="run"}`
	if r := one(t, st, Query{Selector: sel, ToNs: -1, Op: OpMin}); r.Samples[0].V != 11 {
		t.Fatalf("min = %v, want 11", r.Samples[0].V)
	}
	r := one(t, st, Query{Selector: sel, ToNs: -1, Op: OpLast})
	if r.Samples[0].V != 15 {
		t.Fatalf("last = %v, want 15", r.Samples[0].V)
	}
	// Aggregation points carry the window's last timestamp.
	if r.Samples[0].T != 42*time.Hour {
		t.Fatalf("aggregation timestamp = %v, want 42h", r.Samples[0].T)
	}
}

func TestQueryBadOp(t *testing.T) {
	st := queryFixture(t)
	for _, op := range []string{"p99", "delta", "rate", "max", "avg", "count", "quantile"} {
		if _, err := st.Query(Query{Selector: "wan_rounds_total", ToNs: -1, Op: op}); err == nil {
			t.Fatalf("unknown op %q should error", op)
		}
	}
}

func TestSeriesListing(t *testing.T) {
	st := queryFixture(t)
	infos := st.Series()
	if len(infos) != 3 {
		t.Fatalf("listed %d series, want 3", len(infos))
	}
	if infos[0].Name != "wan_rounds_total" || infos[0].Type != "counter" {
		t.Fatalf("first listing = %+v, want wan_rounds_total counter", infos[0])
	}
	if infos[1].Retained != 8 || infos[1].Total != 8 {
		t.Fatalf("listing counts = %+v, want retained=total=8", infos[1])
	}
}

// TestQuerySelectorRoundTripsKey: Key renders label values with %q, so
// a series' own Key must select it even when a value holds a quote, a
// backslash or a comma next to a quote.
func TestQuerySelectorRoundTripsKey(t *testing.T) {
	for _, labels := range [][]obs.Label{
		{obs.L("k", `a"b,c`)},
		{obs.L("k", `a\b`)},
		{obs.L("k", `"`)},
		{obs.L("k", `a\",b`)},
		{obs.L("k", "tab\there")},
		{obs.L("k", `a"`), obs.L("z", `,"`)},
	} {
		sel := Key("x_db", labels)
		t.Run(sel, func(t *testing.T) {
			st := New(Options{})
			appender(st.Root(), "x_db", []obs.Label{obs.L("k", "a")}, "gauge")(0, 1)
			appender(st.Root(), "x_db", labels, "gauge")(0, 2)
			res, err := st.Query(Query{Selector: sel, ToNs: -1})
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 1 || res[0].Samples[0].V != 2 {
				t.Fatalf("matched %+v, want only its own series", res)
			}
			for _, l := range labels {
				if got := res[0].Labels[l.Key]; got != l.Value {
					t.Fatalf("label %s = %q, want %q", l.Key, got, l.Value)
				}
			}
		})
	}
}

// FuzzParseSelector: /queryz?q= is HTTP input. The parser never
// panics, and whatever it accepts, rendered back through Key, parses
// to the same name and label values.
func FuzzParseSelector(f *testing.F) {
	f.Fuzz(func(t *testing.T, sel string) {
		name, want, err := ParseSelector(sel)
		if err != nil {
			return
		}
		labels := make([]obs.Label, 0, len(want))
		for k, v := range want {
			labels = append(labels, obs.L(k, v))
		}
		key := Key(name, labels)
		name2, want2, err := ParseSelector(key)
		if err != nil {
			t.Fatalf("%q parsed to %q %v, whose key %q does not parse: %v", sel, name, want, key, err)
		}
		if name2 != name || len(want2) != len(want) {
			t.Fatalf("%q parsed to %q %v; its key %q parses to %q %v", sel, name, want, key, name2, want2)
		}
		for k, v := range want {
			if got, ok := want2[k]; !ok || got != v {
				t.Fatalf("%q parsed to %q %v; its key %q parses to %q %v", sel, name, want, key, name2, want2)
			}
		}
	})
}
