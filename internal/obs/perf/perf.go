// Package perf is the wall-clock side channel of the observability
// stack: per-phase latency capture and runtime.MemStats/GC deltas,
// written to a separate artifact (-perf-out) and served at /perfz.
//
// Everything else in this repo measures cost in deterministic work
// units (rwc_work_* counters, solve-work histograms) precisely so that
// same-seed runs are byte-identical; perf is where the wall clock is
// allowed back in, under two hard rules:
//
//  1. Segregation: a Recorder never writes into the deterministic
//     registry, trace, manifest, history, or flight artifacts. Enabling
//     -perf-out must leave every other artifact byte-identical to a
//     plain run — the same invariant the -serve flag upholds.
//  2. Containment: this is the only place a duration of the run is
//     measured or stored, and the one simulation-adjacent package
//     allowed to call time.Now (the nowalltime lint analyzer exempts
//     exactly this import path). Wall readings stay inside Recorder
//     state and the perf artifact; nothing flows back into simulation
//     results.
//
// The perf artifact pairs wall latencies with the registry's exact
// work counters (passed in at snapshot time), so a regression report
// can say both "round latency doubled" and "Dijkstra pops did not" —
// separating algorithmic regressions from machine noise.
package perf

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// ReportKind marks perf artifacts so rwc-diff can sniff them among
// other JSON files.
const ReportKind = "rwc-perf"

// WorkPrefix is the metric-name prefix of the deterministic work
// counters the simulation publishes; FilterWork selects them from a
// registry totals map into the perf artifact.
const WorkPrefix = "rwc_work_"

// recentSamples is the per-phase ring size of most-recent durations
// (what rwc-top renders as a latency sparkline).
const recentSamples = 32

// latencyBuckets are the per-phase histogram upper bounds in
// nanoseconds: 100µs to ~16s in powers of four — wide enough for a
// sub-millisecond Abilene round and a multi-second continental solve.
var latencyBuckets = []int64{
	100_000,        // 100µs
	400_000,        // 400µs
	1_600_000,      // 1.6ms
	6_400_000,      // 6.4ms
	25_600_000,     // 25.6ms
	102_400_000,    // 102ms
	409_600_000,    // 410ms
	1_638_400_000,  // 1.6s
	6_553_600_000,  // 6.6s
	16_000_000_000, // 16s
}

// phase accumulates one named phase's wall latencies.
type phase struct {
	count   int64
	totalNs int64
	minNs   int64
	maxNs   int64
	buckets []int64 // cumulative-at-export; stored as per-bucket counts
	recent  []int64 // ring of the last recentSamples durations
	next    int     // ring write cursor
}

// Recorder captures wall-clock performance for one tool run. The zero
// value is not usable; call New. A nil *Recorder is a valid disabled
// recorder: every method no-ops, so call sites need no guards.
//
// Recorders are safe for concurrent use — policy runs time phases from
// parallel workers.
type Recorder struct {
	tool  string
	start time.Time

	mu       sync.Mutex
	phases   map[string]*phase
	order    []string // insertion order, for stable reports
	startMem runtime.MemStats
}

// New returns a live recorder stamped with the tool name.
func New(tool string) *Recorder {
	r := &Recorder{
		tool:   tool,
		start:  time.Now(),
		phases: make(map[string]*phase),
	}
	runtime.ReadMemStats(&r.startMem)
	return r
}

// noop is the shared disabled phase closer (mirrors wan's noopEnd: one
// package-level func so disabled call sites never allocate a closure).
var noop = func() {}

// Phase starts timing one occurrence of the named phase and returns
// its closer. Phases aggregate: N calls with the same name produce one
// entry with count N, min/max/total, a latency histogram, and a ring
// of recent samples. Nil-safe.
func (r *Recorder) Phase(name string) func() {
	if r == nil {
		return noop
	}
	t0 := time.Now()
	return func() {
		r.observe(name, time.Since(t0).Nanoseconds())
	}
}

// Observe records one already-measured duration for a phase (for
// callers that time a region themselves). Nil-safe.
func (r *Recorder) Observe(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.observe(name, d.Nanoseconds())
}

func (r *Recorder) observe(name string, ns int64) {
	if ns < 0 {
		ns = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.phases[name]
	if p == nil {
		p = &phase{
			minNs:   ns,
			maxNs:   ns,
			buckets: make([]int64, len(latencyBuckets)),
			recent:  make([]int64, 0, recentSamples),
		}
		r.phases[name] = p
		r.order = append(r.order, name)
	}
	p.count++
	p.totalNs += ns
	if ns < p.minNs {
		p.minNs = ns
	}
	if ns > p.maxNs {
		p.maxNs = ns
	}
	for i, ub := range latencyBuckets {
		if ns <= ub {
			p.buckets[i]++
			break
		}
	}
	if len(p.recent) < recentSamples {
		p.recent = append(p.recent, ns)
	} else {
		p.recent[p.next] = ns
	}
	p.next = (p.next + 1) % recentSamples
}

// PhaseReport is one phase's aggregated wall latencies. All wall
// fields end in Ns: rwc-diff never gates on them (only the work copy
// is exact-class; phase means are listed as info).
type PhaseReport struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	MinNs   int64  `json:"min_ns"`
	MaxNs   int64  `json:"max_ns"`
	// BucketsNs[i] counts samples ≤ BucketBoundsNs[i] (non-cumulative).
	BucketsNs []int64 `json:"buckets_ns"`
	// RecentNs holds up to recentSamples most-recent durations, oldest
	// first — the sparkline feed.
	RecentNs []int64 `json:"recent_ns"`
}

// MemReport is the runtime memory delta from recorder construction to
// snapshot (counters are deltas; gauges are point-in-time).
type MemReport struct {
	HeapAllocBytes  uint64  `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64  `json:"total_alloc_bytes"`
	Mallocs         uint64  `json:"mallocs"`
	Frees           uint64  `json:"frees"`
	NumGC           uint32  `json:"num_gc"`
	PauseTotalNs    uint64  `json:"pause_total_ns"`
	GCCPUFraction   float64 `json:"gc_cpu_fraction"`
}

// Report is the perf artifact: the segregated wall-clock record of one
// run, plus a copy of the deterministic work counters so one file
// carries both sides of a perf investigation.
type Report struct {
	Kind           string        `json:"kind"` // always ReportKind
	Tool           string        `json:"tool,omitempty"`
	ElapsedNs      int64         `json:"elapsed_ns"`
	BucketBoundsNs []int64       `json:"bucket_bounds_ns"`
	Phases         []PhaseReport `json:"phases"`
	Mem            MemReport     `json:"mem"`
	// Work maps "name{labels}" → value for every rwc_work_* series
	// (exact integers; the deterministic half of the artifact). JSON
	// marshaling sorts the keys, so the section is byte-stable.
	Work map[string]float64 `json:"work,omitempty"`
}

// Snapshot renders the recorder's current state. work, when non-nil,
// is embedded verbatim (pass FilterWork(registry.Totals())). Nil-safe:
// a nil recorder returns a zero Report.
func (r *Recorder) Snapshot(work map[string]float64) Report {
	if r == nil {
		return Report{Kind: ReportKind}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := Report{
		Kind:           ReportKind,
		Tool:           r.tool,
		ElapsedNs:      time.Since(r.start).Nanoseconds(),
		BucketBoundsNs: append([]int64(nil), latencyBuckets...),
		Phases:         make([]PhaseReport, 0, len(r.order)),
		Work:           work,
	}
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	for _, name := range names {
		p := r.phases[name]
		pr := PhaseReport{
			Name:      name,
			Count:     p.count,
			TotalNs:   p.totalNs,
			MinNs:     p.minNs,
			MaxNs:     p.maxNs,
			BucketsNs: append([]int64(nil), p.buckets...),
		}
		// Unroll the ring oldest-first.
		if len(p.recent) == recentSamples {
			pr.RecentNs = append(pr.RecentNs, p.recent[p.next:]...)
			pr.RecentNs = append(pr.RecentNs, p.recent[:p.next]...)
		} else {
			pr.RecentNs = append(pr.RecentNs, p.recent...)
		}
		rep.Phases = append(rep.Phases, pr)
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rep.Mem = MemReport{
		HeapAllocBytes:  m.HeapAlloc,
		TotalAllocBytes: m.TotalAlloc - r.startMem.TotalAlloc,
		Mallocs:         m.Mallocs - r.startMem.Mallocs,
		Frees:           m.Frees - r.startMem.Frees,
		NumGC:           m.NumGC - r.startMem.NumGC,
		PauseTotalNs:    m.PauseTotalNs - r.startMem.PauseTotalNs,
		GCCPUFraction:   m.GCCPUFraction,
	}
	return rep
}

// WriteJSON writes the artifact as indented JSON (one object; the
// -perf-out file format).
func (r *Recorder) WriteJSON(w io.Writer, work map[string]float64) error {
	rep := r.Snapshot(work)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// FilterWork selects the deterministic work counters from a registry
// totals map (obs.Registry.Totals()): every series whose name starts
// with WorkPrefix.
func FilterWork(totals map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range totals {
		if strings.HasPrefix(k, WorkPrefix) {
			out[k] = v
		}
	}
	return out
}

// IsReport reports whether raw JSON bytes look like a perf artifact
// (kind == ReportKind) — the sniff rwc-diff uses to tell .json files
// apart.
func IsReport(data []byte) bool {
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return false
	}
	return probe.Kind == ReportKind
}
