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
