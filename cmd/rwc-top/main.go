// Command rwc-top is a live terminal dashboard for a running
// simulation's operations plane (rwc-wansim or rwc-wansimd with
// -serve, typically alongside -linger and -hist-out). It polls /runz
// for run state, /queryz for windowed history of the key WAN series,
// and renders sparkline summaries plus the current alert state and —
// when the run has -perf-out — a PERF panel from /perfz: per-phase
// wall-latency sparklines over the most recent rounds and the top
// deterministic rwc_work_* counters.
//
// Usage:
//
//	rwc-top [-addr host:port] [-window 48h] [-once]
//
// Each frame shows, per (series, label set) of the four key WAN series
// (wan_snr_min_db, wan_flap_rate, wan_capacity_gbps,
// wan_shipped_gbps): the latest value, a sparkline of the window's
// samples, and the window min/max — all in
// sim time, so a paused simulation renders a stable frame. The ALERTS
// section lists rules currently firing (the alerts_active history
// series); the run's /queryz answers from the same deterministic store
// that -hist-out archives, so what rwc-top shows is exactly what the
// artifact will contain.
//
// -once renders a single frame and exits (0 on success, 1 when the
// operations plane is unreachable) — the CI smoke mode. Without -once
// it redraws every two seconds until interrupted. The WAN series and
// ALERTS need the serving run to have -hist-out: without it /seriesz
// lists only the service ledger's rwc_sli_* series, and rwc-top still
// shows /runz state, the SERVICE panel, and notes that history is
// disabled.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs/hist"
	"repro/internal/obs/perf"
	"repro/internal/obs/serve"
	"repro/internal/obs/sli"
)

// sparkRunes is the 8-level bar alphabet, lowest to highest.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

type config struct {
	base   string // http://host:port
	window time.Duration
	series []string
	width  int
}

// redraw is the poll/redraw cadence without -once.
const redraw = 2 * time.Second

// getJSON fetches one endpoint and decodes it, into the type the
// server encodes (serve.Runz, serve.Queryz, serve.Seriesz, perf.Report,
// sli.Snapshot). A 404 is reported as errDisabled so callers can
// degrade instead of failing.
var errDisabled = fmt.Errorf("endpoint disabled")

func getJSON(client *http.Client, u string, v any) error {
	resp, err := client.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return errDisabled
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// queryRange fetches one series' raw samples over (now-window, now].
func queryRange(client *http.Client, cfg config, selector string, nowNs int64) ([]hist.Result, error) {
	from := nowNs - cfg.window.Nanoseconds()
	if from < 0 {
		from = 0
	}
	q := url.Values{}
	q.Set("q", selector)
	q.Set("from_ns", fmt.Sprint(from))
	q.Set("to_ns", "-1")
	var out serve.Queryz
	if err := getJSON(client, cfg.base+"/queryz?"+q.Encode(), &out); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// runHistory reports whether the serving run keeps metrics history:
// /seriesz lists a series beside the service ledger's rwc_sli_* ones.
// A run with -hist-out reads as history-less until it records its
// first series.
func runHistory(client *http.Client, cfg config) (bool, error) {
	var out serve.Seriesz
	if err := getJSON(client, cfg.base+"/seriesz", &out); err != nil {
		if err == errDisabled {
			return false, nil
		}
		return false, err
	}
	for _, s := range out.Series {
		if !strings.HasPrefix(s.Name, "rwc_sli_") {
			return true, nil
		}
	}
	return false, nil
}

// sparkline renders vals into width buckets, scaling min..max onto the
// 8-level bar alphabet. Flat series render mid-level bars.
func sparkline(vals []float64, width int) string {
	if len(vals) == 0 || width <= 0 {
		return ""
	}
	if width > len(vals) {
		width = len(vals)
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	var b strings.Builder
	for i := 0; i < width; i++ {
		// Mean of this bucket's slice of the series.
		start, end := i*len(vals)/width, (i+1)*len(vals)/width
		sum := 0.0
		for _, v := range vals[start:end] {
			sum += v
		}
		mean := sum / float64(end-start)
		level := len(sparkRunes) / 2
		if hi > lo {
			level = int((mean - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[level])
	}
	return b.String()
}

// labelString renders a result's labels in canonical sorted order.
func labelString(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, labels[k])
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatSim(ns int64) string {
	return time.Duration(ns).String()
}

// renderFrame draws one full dashboard frame to w. It returns an error
// only when /runz itself is unreachable; history being disabled
// degrades to a note.
func renderFrame(w io.Writer, client *http.Client, cfg config) error {
	var runz serve.Runz
	if err := getJSON(client, cfg.base+"/runz", &runz); err != nil {
		return fmt.Errorf("runz: %w", err)
	}
	fmt.Fprintf(w, "rwc-top — %s seed=%d sim=%s ready=%v series=%d (window %s)\n\n",
		runz.Tool, runz.Seed, formatSim(runz.SimNowNs), runz.Ready, runz.MetricSeries, cfg.window)

	histOK, err := runHistory(client, cfg)
	if err != nil {
		return fmt.Errorf("seriesz: %w", err)
	}
	if !histOK {
		fmt.Fprintf(w, "  history disabled for this run — start it with -hist-out to enable the WAN series\n")
		fmt.Fprintf(w, "\nALERTS\n  unavailable without history\n")
		// Service and perf are independent of history: a served or
		// -perf-out run without -hist-out still gets those panels.
		renderService(w, client, cfg)
		renderPerf(w, client, cfg)
		return nil
	}
	for _, sel := range cfg.series {
		results, err := queryRange(client, cfg, sel, runz.SimNowNs)
		if err != nil {
			return fmt.Errorf("queryz %s: %w", sel, err)
		}
		if len(results) == 0 {
			fmt.Fprintf(w, "  %-58s (no samples in window)\n", sel)
			continue
		}
		for _, r := range results {
			vals := make([]float64, len(r.Samples))
			for i, s := range r.Samples {
				vals[i] = s.V
			}
			lo, hi := vals[0], vals[0]
			for _, v := range vals {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			last := vals[len(vals)-1]
			fmt.Fprintf(w, "  %-58s %10.3f  %s  [%.3f … %.3f]\n",
				r.Name+labelString(r.Labels), last, sparkline(vals, cfg.width), lo, hi)
		}
	}
	fmt.Fprintf(w, "\nALERTS\n")
	active, err := queryRange(client, cfg, "alerts_active", runz.SimNowNs)
	if err != nil {
		return fmt.Errorf("queryz alerts_active: %w", err)
	}
	firing := 0
	for _, r := range active {
		if len(r.Samples) == 0 {
			continue
		}
		if last := r.Samples[len(r.Samples)-1]; last.V > 0 {
			firing++
			fmt.Fprintf(w, "  FIRING %s (since sample at %s)\n",
				labelString(r.Labels), formatSim(last.T.Nanoseconds()))
		}
	}
	if firing == 0 {
		fmt.Fprintf(w, "  none firing\n")
	}

	renderService(w, client, cfg)
	renderPerf(w, client, cfg)
	return nil
}

// renderService draws the SERVICE panel from /sliz (and a
// decisions/sec sparkline from /queryz over the SLI history). A failed
// fetch degrades to a note — the panel is advisory and must never take
// down a frame that /runz answered.
func renderService(w io.Writer, client *http.Client, cfg config) {
	var sz sli.Snapshot
	if err := getJSON(client, cfg.base+"/sliz", &sz); err != nil {
		fmt.Fprintf(w, "\nSERVICE\n  unavailable: %v\n", err)
		return
	}
	fmt.Fprintf(w, "\nSERVICE (%s — live only, never in the deterministic artifacts)\n", sz.Tool)
	fmt.Fprintf(w, "  uptime %s  config generation %d\n",
		time.Duration(sz.UptimeNs).Round(time.Millisecond), sz.Generation)

	// Decisions/sec sparkline over the SLI history store; the series
	// is uptime-clocked, so the window query uses uptime as "now".
	if results, err := queryRange(client, cfg, "rwc_sli_decisions_per_second", sz.UptimeNs); err == nil {
		for _, r := range results {
			if len(r.Samples) == 0 {
				continue
			}
			vals := make([]float64, len(r.Samples))
			for i, s := range r.Samples {
				vals[i] = s.V
			}
			fmt.Fprintf(w, "  %-58s %10.3f  %s\n", r.Name, vals[len(vals)-1], sparkline(vals, cfg.width))
		}
	}

	// Headline gauges/counters straight from the snapshot totals.
	show := func(label string, keys ...string) {
		var sum float64
		found := false
		for k, v := range sz.Totals {
			for _, key := range keys {
				if k == key || strings.HasPrefix(k, key+"{") {
					sum += v
					found = true
				}
			}
		}
		if found {
			fmt.Fprintf(w, "  %-58s %12.3f\n", label, sum)
		}
	}
	show("scrape p99 proxy: last scrape latency (s)", "rwc_sli_scrape_latency_last_seconds")
	show("sse subscribers", "rwc_sli_sse_subscribers")
	show("sse dropped (all causes)", "rwc_sli_sse_dropped_total")
	show("config reloads (all results)", "rwc_sli_config_reloads_total")
	show("rounds completed", "rwc_sli_rounds_total")
	show("decisions total", "rwc_sli_decisions_total")

	if len(sz.ActiveAlerts) == 0 {
		fmt.Fprintf(w, "  service alerts: none firing\n")
	} else {
		for _, a := range sz.ActiveAlerts {
			fmt.Fprintf(w, "  service alert FIRING: %s\n", a.Rule)
		}
	}
}

// topWorkCounters caps how many work counters the PERF panel lists.
const topWorkCounters = 8

// renderPerf draws the PERF panel from /perfz. Perf capture being
// disabled (404) or the fetch failing degrades to a note: the panel is
// advisory and must never take down a frame that /runz answered.
func renderPerf(w io.Writer, client *http.Client, cfg config) {
	var pz perf.Report
	if err := getJSON(client, cfg.base+"/perfz", &pz); err != nil {
		if err == errDisabled {
			fmt.Fprintf(w, "\nPERF\n  perf capture disabled for this run — enable with -perf-out\n")
		} else {
			fmt.Fprintf(w, "\nPERF\n  unavailable: %v\n", err)
		}
		return
	}
	fmt.Fprintf(w, "\nPERF (wall clock — side channel, not in the deterministic artifacts)\n")
	for _, p := range pz.Phases {
		vals := make([]float64, len(p.RecentNs))
		for i, ns := range p.RecentNs {
			vals[i] = float64(ns)
		}
		last := time.Duration(0)
		if n := len(p.RecentNs); n > 0 {
			last = time.Duration(p.RecentNs[n-1])
		}
		fmt.Fprintf(w, "  %-42s n=%-5d %10s  %s  [%s … %s]\n",
			p.Name, p.Count, last, sparkline(vals, cfg.width),
			time.Duration(p.MinNs), time.Duration(p.MaxNs))
	}
	if len(pz.Phases) == 0 {
		fmt.Fprintf(w, "  no phases recorded yet\n")
	}
	// Top deterministic work counters, largest first: the solver-effort
	// view that stays byte-identical across worker counts.
	type wc struct {
		name string
		v    float64
	}
	work := make([]wc, 0, len(pz.Work))
	for name, v := range pz.Work {
		work = append(work, wc{name, v})
	}
	sort.Slice(work, func(i, j int) bool {
		if work[i].v != work[j].v { //nolint:nofloateq // comparator tie-break: tolerance would break strict weak ordering
			return work[i].v > work[j].v
		}
		return work[i].name < work[j].name
	})
	if len(work) > topWorkCounters {
		work = work[:topWorkCounters]
	}
	for _, c := range work {
		fmt.Fprintf(w, "  %-58s %12.0f\n", c.name, c.v)
	}
}

func main() {
	addr := flag.String("addr", "localhost:6060", "operations-plane address of the running simulation (-serve)")
	window := flag.Duration("window", 48*time.Hour, "sim-time window each sparkline covers")
	once := flag.Bool("once", false, "render a single frame and exit (CI snapshot mode)")
	flag.Parse()

	cfg := config{
		base:   "http://" + *addr,
		window: *window,
		series: []string{"wan_snr_min_db", "wan_flap_rate", "wan_capacity_gbps", "wan_shipped_gbps"},
		width:  32,
	}
	client := &http.Client{Timeout: 10 * time.Second}

	if *once {
		if err := renderFrame(os.Stdout, client, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "rwc-top: %v\n", err)
			os.Exit(1)
		}
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(redraw)
	defer ticker.Stop()
	for {
		var frame strings.Builder
		err := renderFrame(&frame, client, cfg)
		// Clear screen + home cursor between frames; on error keep the
		// last good frame and show the error on one line instead.
		fmt.Print("\x1b[2J\x1b[H")
		if err != nil {
			fmt.Printf("rwc-top: %v (retrying every %s)\n", err, redraw)
		} else {
			fmt.Print(frame.String())
		}
		select {
		case <-sig:
			return
		case <-ticker.C:
		}
	}
}
