package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/perf"
)

func TestPerfzDisabledIs404(t *testing.T) {
	s := mustNew(t, Options{Obs: obs.New(), Tool: "serve-test", Seed: 7, Admit: stubAdmit})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, body := get(t, ts, "/perfz")
	if code != http.StatusNotFound {
		t.Fatalf("/perfz without a recorder = %d, want 404", code)
	}
	if !strings.Contains(body, "-perf-out") {
		t.Fatalf("404 body should point at -perf-out: %q", body)
	}
}

func TestPerfzServesSnapshotWithWorkCounters(t *testing.T) {
	o := obs.New()
	o.Counter("rwc_work_dijkstra_pops_total", "pops", obs.L("policy", "dynamic")).Add(321)
	o.Counter("wan_changes_total", "changes", obs.L("policy", "dynamic")).Add(5)
	rec := perf.New("serve-test")
	rec.Observe("wan.round/dynamic", 2*time.Millisecond)

	s := mustNew(t, Options{Obs: o, Tool: "serve-test", Seed: 7, Perf: rec, Admit: stubAdmit})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/perfz")
	if code != http.StatusOK {
		t.Fatalf("/perfz = %d: %s", code, body)
	}
	if !perf.IsReport([]byte(body)) {
		t.Fatalf("/perfz body does not sniff as a perf report: %s", body)
	}
	var rep perf.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 1 || rep.Phases[0].Name != "wan.round/dynamic" || rep.Phases[0].Count != 1 {
		t.Fatalf("phases = %+v", rep.Phases)
	}
	// Work carries exactly the rwc_work_* series from the live registry.
	if v := rep.Work[`rwc_work_dijkstra_pops_total{policy="dynamic"}`]; v != 321 {
		t.Fatalf("work = %v, want the registry's pops counter", rep.Work)
	}
	for k := range rep.Work {
		if !strings.HasPrefix(k, perf.WorkPrefix) {
			t.Fatalf("non-work series %q leaked into /perfz", k)
		}
	}
}
