// Command rwc-loadgen drives deterministic client load at a running
// rwc-wansimd and reports what the service sustained.
//
// Usage:
//
//	rwc-loadgen -addr host:port [-duration 3s] [-seed N] [-out report.json]
//
// The offered load is reproducible: gravity-model demand batches of 16
// over a 12-node id space every 50 ms (POST /demandz), metrics scrapes
// every 100 ms (GET /metrics), history/SLI reads every 250 ms (GET
// /queryz, /sliz), and two SSE trace subscribers (GET /traces), all
// shaped by -seed. The report (stdout, or -out) is a
// JSON artifact of kind "rwc-load": client latency percentiles,
// demand admission totals, SSE delivered-vs-dropped, and daemon-side
// rwc_sli_* deltas over the window — sustained decisions/sec among
// them. rwc-diff understands the kind and gates two reports
// against each other, so a load report checked into CI becomes a
// service-level budget.
//
// Exit status: 0 = report written, 1 = the daemon was unreachable or
// the report could not be written, 2 = usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/load"
)

func main() {
	addr := flag.String("addr", "", "daemon operations-plane address, host:port or full http:// URL (required)")
	duration := flag.Duration("duration", 3*time.Second, "how long to offer load")
	seed := flag.Uint64("seed", 1, "load shape seed (demand volumes, node pairs)")
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	flag.Parse()

	if *addr == "" {
		fmt.Fprintln(os.Stderr, "rwc-loadgen: -addr is required")
		os.Exit(2)
	}
	base := *addr
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}

	// The zero cadences, batch size and node count take load's
	// defaults; SSEClients 0 would mean no subscribers.
	rep, err := load.Run(load.Options{
		BaseURL:    base,
		Duration:   *duration,
		SSEClients: 2,
		Seed:       *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rwc-loadgen: %v\n", err)
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rwc-loadgen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := rep.WriteJSON(w); err != nil {
		fmt.Fprintf(os.Stderr, "rwc-loadgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr,
		"rwc-loadgen: %s for %v: %.1f decisions/s sustained, scrape p99 %v, %d SSE events (%.0f dropped slow-consumer), %d/%d demands admitted\n",
		base, duration.String(), rep.Service.DecisionsPerSec,
		time.Duration(rep.Scrape.P99Ns), rep.SSE.Events, rep.SSE.DroppedSlowConsumer,
		rep.Demand.Admitted, rep.Demand.Demands)
}
