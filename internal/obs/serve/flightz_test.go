package serve

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/flight"
)

func testRecorder(t *testing.T) *flight.Recorder {
	t.Helper()
	rec := flight.New(flight.Options{})
	links := []flight.Link{{Edge: 0, Name: "sea->den", Fiber: 0}}
	if err := rec.Bind("", links, nil, 0, 6*time.Hour); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		rec.Record(flight.RoundRecord{
			Policy: "dynamic", Round: r, OfferedGbps: 100, ShippedGbps: 90, CapacityGbps: 200,
			Links: []flight.LinkRecord{{SNRdB: 8.5, TierGbps: 100, CapacityGbps: 100}},
		})
	}
	return rec
}

func TestFlightzServesRunsAndRecentFrames(t *testing.T) {
	s := New(Options{Obs: newTestBundle(t), Flight: testRecorder(t)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/flightz")
	if code != 200 {
		t.Fatalf("/flightz = %d: %s", code, body)
	}
	var info struct {
		Runs   []flight.Run         `json:"runs"`
		Recent []flight.RoundRecord `json:"recent"`
	}
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if len(info.Runs) != 1 || len(info.Runs[0].Links) != 1 || info.Runs[0].Links[0].Name != "sea->den" {
		t.Fatalf("runs = %+v", info.Runs)
	}
	if len(info.Recent) != 3 || info.Recent[2].Round != 2 {
		t.Fatalf("recent = %+v", info.Recent)
	}
}

func TestFlightzWithoutRecorder404s(t *testing.T) {
	s := New(Options{Obs: newTestBundle(t)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, _ := get(t, ts, "/flightz"); code != 404 {
		t.Fatalf("/flightz without recorder = %d, want 404", code)
	}
}

func TestMetricsIncludesFlightSeries(t *testing.T) {
	s := New(Options{Obs: newTestBundle(t), Flight: testRecorder(t)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`wan_link_snr_db{link="sea->den",policy="dynamic"} 8.5`,
		"obs_flight_frames_total 3",
		"obs_scrapes_total", // server registry still present
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}
