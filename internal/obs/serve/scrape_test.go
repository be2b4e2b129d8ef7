package serve_test

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/obs/sli"
)

// lockedBuffer lets the test read stderr while the daemon writes it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var servingLine = regexp.MustCompile(`serving operations plane on http://(\S+)`)

// TestMetricsServesAppAndServerRegistries: a served run's /metrics is
// one valid exposition over its two sources — the run registry and the
// service ledger's rwc_sli_* families — for the one-shot lifecycle and
// the paced daemon alike. Every family has exactly one # TYPE line, no
// obs_ service family is left beside the ledger, the run records a
// flight log yet no per-link wan_link_ family is served (the log holds
// those), a scrape counts the scrapes before it, and /sliz answers on
// both.
func TestMetricsServesAppAndServerRegistries(t *testing.T) {
	p := daemon.DefaultParams()
	p.Topology, p.Rounds, p.Seed, p.Policy = "random:8", 4, 11, "dynamic"
	p, _, err := p.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, tool string
		tick       time.Duration
	}{
		{"one-shot", "rwc-wansim", 0},
		{"paced daemon", "rwc-wansimd", time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sigs := make(chan os.Signal, 1)
			var stderr lockedBuffer
			d := daemon.New(daemon.Options{
				Tool: tc.tool, Params: p, Tick: tc.tick,
				Plane: daemon.Plane{
					Artifacts: daemon.Artifacts{FlightOut: filepath.Join(dir, "f.flight")},
					Serve:     "127.0.0.1:0",
				},
				Signals: sigs, Tail: true, Stdout: io.Discard, Stderr: &stderr,
			})
			done := make(chan error, 1)
			go func() { done <- d.Run() }()
			deadline := time.Now().Add(30 * time.Second)
			for !strings.Contains(stderr.String(), "budget complete") {
				if time.Now().After(deadline) {
					t.Fatalf("run never finished its budget; stderr:\n%s", stderr.String())
				}
				time.Sleep(time.Millisecond)
			}
			m := servingLine.FindStringSubmatch(stderr.String())
			if m == nil {
				t.Fatalf("no serving address on stderr:\n%s", stderr.String())
			}
			base := "http://" + m[1]

			get(t, base+"/metrics")
			body := get(t, base+"/metrics")
			if _, err := obs.ParsePrometheusText(strings.NewReader(body)); err != nil {
				t.Fatalf("scrape does not parse: %v", err)
			}
			totals, err := obs.PromTotals(strings.NewReader(body))
			if err != nil {
				t.Fatalf("scrape repeats a series: %v", err)
			}
			types := map[string]int{}
			for _, line := range strings.Split(body, "\n") {
				if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
					types[f[2]]++
				}
			}
			for family, n := range types {
				if n != 1 {
					t.Errorf("family %s has %d # TYPE lines, want 1", family, n)
				}
				if strings.HasPrefix(family, "obs_") {
					t.Errorf("service family %s is served beside the ledger", family)
				}
			}
			for _, family := range []string{"wan_shipped_gbps", sli.MetricRoundsTotal} {
				if types[family] != 1 {
					t.Errorf("scrape lacks the %s family (run registry, ledger)", family)
				}
			}
			for _, line := range strings.Split(body, "\n") {
				if strings.Contains(line, "wan_link_") || strings.Contains(line, "obs_flight_") {
					t.Errorf("flight series served: %s", line)
				}
			}
			if got := totals[sli.MetricScrapesTotal]; got != 1 {
				t.Errorf("%s on the second scrape = %v, want 1", sli.MetricScrapesTotal, got)
			}
			if !strings.Contains(get(t, base+"/sliz"), `"tool": "`+tc.tool+`"`) {
				t.Errorf("/sliz does not name %s", tc.tool)
			}

			sigs <- syscall.SIGTERM
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("run did not stop after SIGTERM")
			}
		})
	}
}

// get fetches url and fails the test unless it answers 200.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}
