// Command rwc-loadgen drives deterministic client load at a running
// rwc-wansimd and reports what the service sustained.
//
// Usage:
//
//	rwc-loadgen -addr host:port [-duration 3s] [-seed N]
//	            [-scrape-interval 100ms] [-query-interval 250ms]
//	            [-batch-interval 50ms] [-batch-size 16] [-sse 2]
//	            [-nodes 12] [-out report.json]
//
// The offered load is reproducible: gravity-model demand batches
// (POST /demandz), metrics scrapes (GET /metrics), history/SLI reads
// (GET /queryz, /sliz), and SSE trace subscriptions (GET /traces) all
// derive their shape from -seed. The report (stdout, or -out) is a
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
	scrapeInterval := flag.Duration("scrape-interval", 100*time.Millisecond, "/metrics client cadence")
	queryInterval := flag.Duration("query-interval", 250*time.Millisecond, "/queryz and /sliz client cadence")
	batchInterval := flag.Duration("batch-interval", 50*time.Millisecond, "/demandz batch cadence")
	batchSize := flag.Int("batch-size", 16, "demands per /demandz batch")
	sse := flag.Int("sse", 2, "concurrent /traces SSE subscribers")
	nodes := flag.Int("nodes", 12, "gravity-model node id space")
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

	rep, err := load.Run(load.Options{
		BaseURL:        base,
		Duration:       *duration,
		ScrapeInterval: *scrapeInterval,
		QueryInterval:  *queryInterval,
		BatchInterval:  *batchInterval,
		BatchSize:      *batchSize,
		SSEClients:     *sse,
		Nodes:          *nodes,
		Seed:           *seed,
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
