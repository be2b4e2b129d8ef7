package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/hist"
	"repro/internal/obs/sli"
)

// histServer builds a server over an Obs with an attached history
// store carrying a seeded SNR dip at rounds 4-5 of 8 (6h cadence).
func histServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	o := obs.New()
	st := hist.New(hist.Options{Tool: "serve-test", Seed: 7})
	o.Metrics.SetHistory(st.Root().Bind(o.Clock))
	g := o.Gauge("wan_snr_min_db", "min SNR", obs.L("policy", "run"))
	for r := 0; r < 8; r++ {
		o.SetSimTime(time.Duration(r) * 6 * time.Hour)
		v := 15.0
		if r == 4 || r == 5 {
			v = 11.0
		}
		g.Set(v)
	}
	s := mustNew(t, Options{Obs: o, Tool: "serve-test", Seed: 7, Hist: st, Admit: stubAdmit})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestQueryzRangeReturnsDip(t *testing.T) {
	_, ts := histServer(t)
	q := url.Values{}
	q.Set("q", `wan_snr_min_db{policy="run"}`)
	q.Set("from_ns", "86400000000000") // 24h
	q.Set("to_ns", "108000000000000")  // 30h
	code, body := get(t, ts, "/queryz?"+q.Encode())
	if code != http.StatusOK {
		t.Fatalf("/queryz = %d: %s", code, body)
	}
	var resp struct {
		Query struct {
			Selector string `json:"q"`
			ToNs     int64  `json:"to_ns"`
		} `json:"query"`
		Results []hist.Result `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(resp.Results))
	}
	s := resp.Results[0].Samples
	if len(s) != 2 || s[0].V != 11 || s[1].V != 11 {
		t.Fatalf("samples = %+v, want the two dip values", s)
	}
	if resp.Query.Selector == "" || resp.Query.ToNs != 108000000000000 {
		t.Fatalf("query echo = %+v", resp.Query)
	}
}

func TestQueryzAggregationAndErrors(t *testing.T) {
	_, ts := histServer(t)
	code, body := get(t, ts, "/queryz?q=wan_snr_min_db&op=min")
	if code != http.StatusOK || !strings.Contains(body, `"v": 11`) {
		t.Fatalf("min query = %d %s", code, body)
	}
	if code, _ := get(t, ts, "/queryz"); code != http.StatusBadRequest {
		t.Fatalf("missing q = %d, want 400", code)
	}
	if code, _ := get(t, ts, "/queryz?q=x&op=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad op = %d, want 400", code)
	}
	if code, _ := get(t, ts, "/queryz?q=x&from_ns=abc"); code != http.StatusBadRequest {
		t.Fatalf("bad from_ns = %d, want 400", code)
	}
	if code, _ := get(t, ts, "/queryz?q=x&op=quantile&quantile=0.5"); code != http.StatusBadRequest {
		t.Fatalf("op=quantile = %d, want 400 (not an op)", code)
	}
	// An unknown series is an empty result, not an error.
	code, body = get(t, ts, "/queryz?q=no_such_series")
	if code != http.StatusOK || !strings.Contains(body, `"results": []`) {
		t.Fatalf("unknown series = %d %s", code, body)
	}
}

func TestSerieszListing(t *testing.T) {
	s, ts := histServer(t)
	code, body := get(t, ts, "/seriesz")
	if code != http.StatusOK {
		t.Fatalf("/seriesz = %d", code)
	}
	var resp struct {
		Series []hist.SeriesInfo `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// The run's series come first, then the service ledger's.
	if len(resp.Series) < 2 || resp.Series[0].Name != "wan_snr_min_db" || resp.Series[0].Total != 8 {
		t.Fatalf("series = %+v", resp.Series)
	}
	for _, info := range resp.Series[1:] {
		if !strings.HasPrefix(info.Name, sli.Prefix) && !strings.HasPrefix(info.Name, "alerts_") {
			t.Fatalf("series %s is neither the run's nor the ledger's", info.Name)
		}
	}
	// Serving history wrote nothing into the app registry.
	if got := len(s.opts.Obs.Metrics.Totals()); got != 1 {
		t.Fatalf("app registry holds %d series after serving history, want 1", got)
	}
}

// TestHistoryEndpointsWithoutStore: a run without -hist-out has no
// history of its own, and /queryz and /seriesz answer over the service
// ledger's store alone.
func TestHistoryEndpointsWithoutStore(t *testing.T) {
	s := mustNew(t, Options{Obs: obs.New(), Tool: "serve-test", Admit: stubAdmit})
	s.SLI().Tick(time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, body := get(t, ts, "/seriesz")
	if code != http.StatusOK {
		t.Fatalf("/seriesz without a run store = %d", code)
	}
	var resp struct {
		Series []hist.SeriesInfo `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(resp.Series) == 0 {
		t.Fatal("/seriesz lists nothing; want the ledger's series")
	}
	for _, info := range resp.Series {
		if !strings.HasPrefix(info.Name, sli.Prefix) && !strings.HasPrefix(info.Name, "alerts_") {
			t.Fatalf("series %s listed without a run store", info.Name)
		}
	}
	code, body = get(t, ts, "/queryz?q="+sli.MetricUptimeSeconds+"&op=last")
	if code != http.StatusOK || !strings.Contains(body, `"v": 1`) {
		t.Fatalf("/queryz over the ledger = %d %s", code, body)
	}
	if code, body := get(t, ts, "/queryz?q=wan_snr_min_db"); code != http.StatusOK || !strings.Contains(body, `"results": []`) {
		t.Fatalf("/queryz for a run series without a run store = %d %s", code, body)
	}
}
