package load

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/serve"
	"repro/internal/obs/sli"
)

// TestRunAgainstServiceMode drives the real serve handler — SLI
// layer, /demandz admission, /traces SSE — with a short burst and
// checks the report's shape end to end.
func TestRunAgainstServiceMode(t *testing.T) {
	o := obs.New("rwc-wansim")
	s := serve.New(serve.Options{
		Obs: o, Tool: "rwc-wansimd", Seed: 7,
		Admit: func(volumes []float64) serve.AdmitResponse {
			return serve.AdmitAgainst(3, "dynamic", 800, 500, volumes)
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Seed some service history so the deltas have an edge to measure.
	layer := s.SLI()
	layer.RoundComplete("dynamic", time.Millisecond, 5)
	layer.Tick(time.Second)

	// Emit trace events during the run so SSE subscribers see data.
	stop := make(chan struct{})
	emitDone := make(chan struct{})
	go func() {
		defer close(emitDone)
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				o.Event("round.complete", obs.A("n", 1))
			}
		}
	}()

	rep, err := Run(Options{
		BaseURL:  ts.URL,
		Duration: 600 * time.Millisecond,
		Seed:     7,
		Client:   ts.Client(),
	})
	close(stop)
	<-emitDone
	if err != nil {
		t.Fatal(err)
	}

	if rep.Kind != ReportKind || rep.Target != ts.URL || rep.Seed != 7 {
		t.Fatalf("report header = %+v", rep)
	}
	if rep.Scrape.Requests == 0 || rep.Scrape.P99Ns == 0 {
		t.Fatalf("no scrapes recorded: %+v", rep.Scrape)
	}
	if rep.Scrape.Errors != 0 || rep.Query.Errors != 0 {
		t.Fatalf("client errors against a healthy server: scrape=%+v query=%+v", rep.Scrape, rep.Query)
	}
	if rep.Demand.Batches == 0 || rep.Demand.Demands != rep.Demand.Batches*batchSize {
		t.Fatalf("demand stream = %+v", rep.Demand)
	}
	// Every batch got a real admission answer against 300 headroom.
	if rep.Demand.Admitted+rep.Demand.Rejected != rep.Demand.Demands || rep.Demand.Errors != 0 {
		t.Fatalf("admission bookkeeping = %+v", rep.Demand)
	}
	if rep.Demand.OfferedGbps <= 0 || rep.Demand.AdmittedGbps > rep.Demand.OfferedGbps {
		t.Fatalf("admitted volume exceeds offered: %+v", rep.Demand)
	}
	if rep.SSE.Subscribers != 2 || rep.SSE.Events == 0 {
		t.Fatalf("SSE subscribers saw nothing: %+v", rep.SSE)
	}
	// Service deltas come from the SLI plane: the scrape client's own
	// scrapes are part of the measured delta.
	if rep.Service.ScrapesDelta <= 0 {
		t.Fatalf("scrapes delta = %v, want > 0", rep.Service.ScrapesDelta)
	}
	if rep.Service.Generation != 1 || rep.Service.ReloadFailures != 0 {
		t.Fatalf("service config state = %+v", rep.Service)
	}
	// The demand probes landed on the daemon-side SLI counters too.
	if got := layer.Registry().Totals()[sli.MetricDemandBatches]; got != float64(rep.Demand.Batches) {
		t.Fatalf("SLI demand batches = %v, report says %d", got, rep.Demand.Batches)
	}
}

func TestRunFailsFastWhenUnreachable(t *testing.T) {
	ts := httptest.NewServer(nil)
	url := ts.URL
	ts.Close()
	if _, err := Run(Options{BaseURL: url, Duration: 50 * time.Millisecond}); err == nil {
		t.Fatal("Run succeeded against a dead daemon")
	}
}
