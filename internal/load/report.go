// Package load is the deterministic load harness for service mode:
// it streams gravity-model demand batches, metrics scrapes, history
// queries, and SSE trace subscriptions at a running rwc-wansimd and
// reports what the service sustained — decisions per second, scrape
// latency percentiles, SSE delivered-vs-dropped — as a JSON artifact
// rwc-diff can gate.
//
// "Deterministic" here means the offered load is reproducible: the
// demand volumes, batch sizes, and client mix derive from a seed via
// internal/rng, so two runs against equal daemons offer identical
// work. The measured latencies are wall-clock by nature — the report
// is a perf-side artifact, gated with multiplicative headroom, never
// a determinism artifact.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ReportKind identifies the artifact in its JSON "kind" field.
const ReportKind = "rwc-load"

// Report is the load harness's JSON artifact.
type Report struct {
	Kind       string `json:"kind"` // always ReportKind
	Tool       string `json:"tool"`
	Target     string `json:"target"`
	Seed       uint64 `json:"seed"`
	DurationNs int64  `json:"duration_ns"`

	// Demand summarizes the /demandz stream.
	Demand DemandStats `json:"demand"`
	// Scrape and Query summarize the /metrics and /queryz clients.
	Scrape ClientStats `json:"scrape"`
	Query  ClientStats `json:"query"`
	// SSE summarizes the /traces subscribers.
	SSE SSEStats `json:"sse"`
	// Service holds daemon-side deltas read from the rwc_sli_* series
	// over the run window.
	Service ServiceStats `json:"service"`
}

// ClientStats are one HTTP client's request/latency figures.
type ClientStats struct {
	Requests int   `json:"requests"`
	Errors   int   `json:"errors"`
	P50Ns    int64 `json:"p50_ns"`
	P95Ns    int64 `json:"p95_ns"`
	P99Ns    int64 `json:"p99_ns"`
	MaxNs    int64 `json:"max_ns"`
	MeanNs   int64 `json:"mean_ns"`
}

// DemandStats summarize the demand batches and admission answers.
type DemandStats struct {
	Batches      int     `json:"batches"`
	Demands      int     `json:"demands"`
	Errors       int     `json:"errors"`
	OfferedGbps  float64 `json:"offered_gbps"`
	AdmittedGbps float64 `json:"admitted_gbps"`
	Admitted     int     `json:"admitted"`
	Rejected     int     `json:"rejected"`
}

// SSEStats summarize the /traces subscribers: what was delivered to
// the clients versus what the server dropped for them (read back from
// the daemon's SLI drop counters).
type SSEStats struct {
	Subscribers          int     `json:"subscribers"`
	Events               int     `json:"events"`
	Bytes                int64   `json:"bytes"`
	DroppedSlowConsumer  float64 `json:"dropped_slow_consumer"`
	DroppedShutdown      float64 `json:"dropped_shutdown"`
	DropFraction         float64 `json:"drop_fraction"`
	EventsPerSec         float64 `json:"events_per_sec"`
	HeartbeatsOrComments int     `json:"comments"`
}

// ServiceStats are daemon-side deltas over the run window, read from
// two /metrics scrapes (first and last).
type ServiceStats struct {
	DecisionsDelta  float64 `json:"decisions_delta"`
	RoundsDelta     float64 `json:"rounds_delta"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	ScrapesDelta    float64 `json:"scrapes_delta"`
	Generation      float64 `json:"config_generation"`
	ReloadFailures  float64 `json:"reload_failures"`
}

// IsReport sniffs whether data is a load report without a full parse.
func IsReport(data []byte) bool {
	return bytes.Contains(data, []byte(`"kind": "`+ReportKind+`"`)) ||
		bytes.Contains(data, []byte(`"kind":"`+ReportKind+`"`))
}

// Parse decodes and validates a load report.
func Parse(data []byte) (Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, err
	}
	if r.Kind != ReportKind {
		return Report{}, fmt.Errorf("not a %s report (kind %q)", ReportKind, r.Kind)
	}
	return r, nil
}

// WriteJSON writes the report with stable indentation.
func (r Report) WriteJSON(w io.Writer) error {
	r.Kind = ReportKind
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// clientStats reduces raw latency samples (ns) to ClientStats.
func clientStats(samples []int64, errors int) ClientStats {
	cs := ClientStats{Requests: len(samples), Errors: errors}
	if len(samples) == 0 {
		return cs
	}
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum int64
	for _, v := range sorted {
		sum += v
	}
	cs.P50Ns = percentile(sorted, 0.50)
	cs.P95Ns = percentile(sorted, 0.95)
	cs.P99Ns = percentile(sorted, 0.99)
	cs.MaxNs = sorted[len(sorted)-1]
	cs.MeanNs = sum / int64(len(sorted))
	return cs
}

// percentile reads the nearest-rank percentile from sorted samples.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
