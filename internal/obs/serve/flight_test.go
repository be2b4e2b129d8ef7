package serve

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/sli"
)

func testRecorder(t *testing.T) *flight.Recorder {
	t.Helper()
	rec := flight.New()
	links := []flight.Link{{Edge: 0, Name: "sea->den", Fiber: 0}}
	if err := rec.Bind("", links, nil, []string{"steady"}, 0, 6*time.Hour); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		rec.Record(flight.RoundRecord{
			Policy: "dynamic", Round: r, OfferedGbps: 100, ShippedGbps: 90, CapacityGbps: 200,
			Links: []flight.LinkRecord{{SNRdB: 8.5, CapacityGbps: 100}},
		})
	}
	return rec
}

func TestMetricsIncludesFlightSeries(t *testing.T) {
	s := New(Options{Obs: obs.New(), Flight: testRecorder(t)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`wan_link_snr_db{link="sea->den",policy="dynamic"} 8.5`,
		"obs_flight_frames_total 3",
		sli.MetricGeneration + " 1", // the service ledger still present
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}
