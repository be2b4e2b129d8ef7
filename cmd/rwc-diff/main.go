// Command rwc-diff compares two run artifacts of the same kind: "are
// these two runs the same?" and "did this one regress?" are one
// comparator with one exit contract.
//
//	rwc-diff [flags] A B
//	rwc-diff [-json] -check FILE...
//
// Scalar artifacts are flattened to name → {value, class}; the class
// comes from the artifact kind, never from a flag:
//
//   - Prometheus exposition (.prom, .txt, .metrics) and run manifest
//     (tool, seed, options, alert summaries, metric totals — a manifest
//     holds no wall-clock reading): every key exact.
//   - perf artifact (kind "rwc-perf", from -perf-out): the rwc_work_*
//     copy exact, per-phase mean wall time info.
//   - bench document (BENCH_quick.json) and bench history entry
//     (BENCH_history.jsonl; -old-sha/-new-sha select by prefix, default
//     last line), comparable with each other: ns/op, B/op, allocs/op
//     ratio-banded, custom b.ReportMetric values info.
//   - load report (kind "rwc-load", from rwc-loadgen): latencies and
//     seconds-per-decision ns-banded, drop/error fractions
//     ratio-banded, offered-load volumes info.
//
// Exact keys must agree exactly (NaN with NaN) in both directions, and
// a key on one side only is a difference: identical code on identical
// inputs does identical work. Ratio-banded keys may grow by their band
// (ns and B/op 1.5×, allocs/op 1.2×, fractions 2×; any growth from zero
// fails), never fail for shrinking, and are only listed when one-sided,
// so adding a benchmark does not break a gate. Info keys are listed,
// never gated: correctness belongs to tests, and raw wall time inherits
// machine noise.
//
// Flight logs (.flight) and history archives (.hist) keep their own
// exact engines behind the same command: flight.Bisect names the first
// diverging (round, link, field) after every frame hash has verified —
// `rwc-diff a.flight b.flight` is how two flight logs are bisected —
// and hist.Diff each differing series and the sim time it diverges at.
//
// -check parse-validates files instead of comparing; -json renders the
// result as one JSON object; -quiet prints failing differences only.
// Exit: 0 = nothing failed, 1 = something did, 2 = usage or parse error.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/hist"
	"repro/internal/obs/perf"
)

// class says how a metric is allowed to differ. classNs…classRatio are
// the four growth bands of the ratio class.
type class int

const (
	classExact  class = iota // must agree exactly, both directions
	classNs                  // wall time: noisy, wide band
	classBytes               // bytes per op: allocator noise, wide band
	classAllocs              // allocs per op: near-deterministic, tight band
	classRatio               // bounded fractions (drop/error rates)
	classInfo                // listed, never gated
)

func (c class) String() string {
	return [...]string{"exact", "ns/op", "B/op", "allocs/op", "ratio", "info"}[c]
}

// metric is one comparable value extracted from an artifact.
type metric struct {
	value float64
	class class
}

// benchResult mirrors rwc-benchjson's per-benchmark object.
type benchResult struct {
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp float64            `json:"bytes_per_op"`
	AllocsOp   float64            `json:"allocs_per_op"`
	Metrics    map[string]float64 `json:"metrics"`
}

// historyLine mirrors one rwc-benchjson -merge record.
type historyLine struct {
	SHA        string                 `json:"sha"`
	Benchmarks map[string]benchResult `json:"benchmarks"`
}

func exactMetrics(totals map[string]float64) map[string]metric {
	m := make(map[string]metric, len(totals))
	for k, v := range totals {
		m[k] = metric{v, classExact}
	}
	return m
}

func benchMetrics(benches map[string]benchResult) map[string]metric {
	m := make(map[string]metric)
	for name, r := range benches {
		m[name+" ns/op"] = metric{r.NsPerOp, classNs}
		if r.BytesPerOp != 0 {
			m[name+" B/op"] = metric{r.BytesPerOp, classBytes}
		}
		if r.AllocsOp != 0 {
			m[name+" allocs/op"] = metric{r.AllocsOp, classAllocs}
		}
		for unit, v := range r.Metrics {
			m[name+" "+unit] = metric{v, classInfo}
		}
	}
	return m
}

func perfMetrics(rep perf.Report) map[string]metric {
	m := exactMetrics(rep.Work)
	for _, p := range rep.Phases {
		if p.Count > 0 {
			m[p.Name+" mean_ns"] = metric{float64(p.TotalNs) / float64(p.Count), classInfo}
		}
	}
	return m
}

// loadMetrics flattens an rwc-loadgen report. The service's sustained
// decision rate gates inverted (seconds per decision, so slower =
// growth = finding); volume figures measure the offered load, not the
// service, so they are info.
func loadMetrics(rep load.Report) map[string]metric {
	m := map[string]metric{
		"loadgen scrape p50_ns":        {float64(rep.Scrape.P50Ns), classNs},
		"loadgen scrape p99_ns":        {float64(rep.Scrape.P99Ns), classNs},
		"loadgen query p99_ns":         {float64(rep.Query.P99Ns), classNs},
		"loadgen scrape max_ns":        {float64(rep.Scrape.MaxNs), classInfo},
		"loadgen sse drop_fraction":    {rep.SSE.DropFraction, classRatio},
		"loadgen demand reject_count":  {float64(rep.Demand.Rejected), classInfo},
		"loadgen demand batches":       {float64(rep.Demand.Batches), classInfo},
		"loadgen sse events_per_sec":   {rep.SSE.EventsPerSec, classInfo},
		"loadgen service rounds_delta": {rep.Service.RoundsDelta, classInfo},
	}
	if rep.Scrape.Requests > 0 {
		m["loadgen scrape error_fraction"] = metric{float64(rep.Scrape.Errors) / float64(rep.Scrape.Requests), classRatio}
	}
	if rep.Demand.Batches > 0 {
		m["loadgen demand error_fraction"] = metric{float64(rep.Demand.Errors) / float64(rep.Demand.Batches), classRatio}
	}
	if rep.Service.DecisionsPerSec > 0 {
		m["loadgen service seconds_per_decision"] = metric{1 / rep.Service.DecisionsPerSec, classNs}
	}
	return m
}

// artifact is one loaded file: scalars for the scalar kinds, the
// decoded log or archive for the two framed formats. kind names what
// was found ("flight", "hist", "prom", "manifest", "perf", "load",
// "bench" — a history entry is a "bench") so two sides can be checked
// for comparability.
type artifact struct {
	kind    string
	n       int // frames, history series or scalar keys
	scalars map[string]metric
	flight  *flight.Log
	hist    *hist.Archive
}

// open reads one artifact. The framed formats and the Prometheus text
// format are recognised by extension; everything else is JSON of some
// shape and is told apart by content. A flight log's frame hashes are
// verified here.
func open(path, sha string) (a artifact, err error) {
	ext := filepath.Ext(path)
	if ext == ".flight" || ext == ".hist" {
		a, err = openFramed(path, ext[1:])
		if err == nil && sha != "" {
			err = errNotHistory
		}
	} else {
		a, err = openScalars(path, ext, sha)
	}
	if err != nil {
		return a, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

var errNotHistory = errors.New("SHA selection requested but the file is not a bench history")

func openFramed(path, kind string) (artifact, error) {
	a := artifact{kind: kind}
	f, err := os.Open(path)
	if err != nil {
		return a, err
	}
	defer f.Close()
	if kind == "hist" {
		if a.hist, err = hist.ReadArchive(f); err == nil {
			a.n = len(a.hist.Series)
		}
	} else if a.flight, err = flight.ReadLog(f); err == nil {
		a.n = len(a.flight.Frames)
		err = a.flight.VerifyHashes()
	}
	return a, err
}

func openScalars(path, ext, sha string) (a artifact, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return a, err
	}
	var totals map[string]float64
	entries, isHistory := parseHistory(data)
	switch {
	case isHistory:
		var e historyLine
		e, err = selectEntry(entries, sha)
		a.kind, a.scalars = "bench", benchMetrics(e.Benchmarks)
	case sha != "":
		err = errNotHistory
	case ext == ".prom" || ext == ".txt" || ext == ".metrics":
		a.kind = "prom"
		totals, err = obs.PromTotals(bytes.NewReader(data))
	case load.IsReport(data):
		var rep load.Report
		rep, err = load.Parse(data)
		a.kind, a.scalars = "load", loadMetrics(rep)
	case perf.IsReport(data):
		var rep perf.Report
		err = json.Unmarshal(data, &rep)
		a.kind, a.scalars = "perf", perfMetrics(rep)
	case bytes.Contains(data, []byte(`"go_version"`)):
		a.kind = "manifest"
		totals, err = obs.ManifestTotals(bytes.NewReader(data))
	default:
		var benches map[string]benchResult
		if err = json.Unmarshal(data, &benches); err != nil {
			err = fmt.Errorf("not a metrics exposition, manifest, perf artifact, load report, bench history or bench document: %v", err)
		}
		a.kind, a.scalars = "bench", benchMetrics(benches)
	}
	if totals != nil {
		a.scalars = exactMetrics(totals)
	}
	a.n = len(a.scalars)
	return a, err
}

// parseHistory parses an rwc-benchjson -merge history: every non-blank
// line a JSON object carrying a benchmarks map.
func parseHistory(data []byte) ([]historyLine, bool) {
	var entries []historyLine
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e historyLine
		if err := json.Unmarshal(line, &e); err != nil || e.Benchmarks == nil {
			return nil, false
		}
		entries = append(entries, e)
	}
	return entries, len(entries) > 0
}

// selectEntry picks the history record for sha (prefix match, so the
// Makefile's short SHAs work against full ones and vice versa), or the
// last record when sha is empty.
func selectEntry(entries []historyLine, sha string) (historyLine, error) {
	if sha == "" {
		return entries[len(entries)-1], nil
	}
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if strings.HasPrefix(e.SHA, sha) || strings.HasPrefix(sha, e.SHA) {
			return e, nil
		}
	}
	return historyLine{}, fmt.Errorf("no history entry for sha %q", sha)
}

// bands is the growth ratio each ratio-banded class allows.
var bands = [classInfo + 1]float64{classNs: 1.5, classBytes: 1.5, classAllocs: 1.2, classRatio: 2.0}

// finding is one key that differs between the two sides. For scalar
// artifacts A or B is nil when the key is absent there; the framed
// formats' engines describe the difference in Detail instead.
type finding struct {
	Key    string   `json:"key"`
	Class  string   `json:"class"`
	A      *float64 `json:"a,omitempty"`
	B      *float64 `json:"b,omitempty"`
	Detail string   `json:"detail,omitempty"`
	// Limit is the growth ratio allowed (ratio-banded classes only).
	Limit float64 `json:"limit,omitempty"`
	// Regress marks the findings that fail the comparison.
	Regress bool `json:"regress"`
}

func (f finding) String() string {
	status := "ok"
	if f.Regress {
		status = "REGRESS"
	} else if f.Class == classInfo.String() {
		status = "info"
	}
	head := fmt.Sprintf("%-7s %-9s %s: ", status, f.Class, f.Key)
	switch {
	case f.Detail != "":
		return head + f.Detail
	case f.B == nil:
		return head + fmt.Sprintf("only in a (= %v)", *f.A)
	case f.A == nil:
		return head + fmt.Sprintf("only in b (= %v)", *f.B)
	case f.Limit > 0:
		return head + fmt.Sprintf("%v -> %v (%.2fx, %.2fx allowed)", *f.A, *f.B, *f.B / *f.A, f.Limit)
	default:
		return head + fmt.Sprintf("%v -> %v (delta %v)", *f.A, *f.B, *f.B-*f.A)
	}
}

// compare is the one comparator: every key of either side, in sorted
// order, judged by the class it has on side a (b's when a lacks it).
// Keys that agree produce no finding.
func compare(a, b map[string]metric) []finding {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []finding
	for _, k := range keys {
		av, inA := a[k]
		bv, inB := b[k]
		switch {
		case !inB:
			out = append(out, finding{Key: k, Class: av.class.String(), A: &av.value, Regress: av.class == classExact})
		case !inA:
			out = append(out, finding{Key: k, Class: bv.class.String(), B: &bv.value, Regress: bv.class == classExact})
		case av.class == classExact:
			if !valuesMatch(av.value, bv.value) {
				out = append(out, finding{Key: k, Class: av.class.String(), A: &av.value, B: &bv.value, Regress: true})
			}
		case av.value != bv.value: //nolint:nofloateq // exact equality is the "nothing to report" fast path; the band is applied below
			limit := bands[av.class]
			regress := limit > 0 && bv.value > av.value*limit
			out = append(out, finding{Key: k, Class: av.class.String(), A: &av.value, B: &bv.value, Limit: limit, Regress: regress})
		}
	}
	return out
}

// valuesMatch reports whether two exact-class values agree, NaN
// matching NaN.
func valuesMatch(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b //nolint:nofloateq // the exact class: same code on same inputs computes the same bits
}

// diff compares two artifacts of one kind: the scalar kinds through
// compare, the framed formats through their own exact engines, whose
// answers are reported as findings like any other.
func diff(a, b artifact) (findings []finding) {
	exact := classExact.String()
	switch a.kind {
	case "flight":
		if d := flight.Bisect(a.flight, b.flight); d.Found {
			findings = append(findings, finding{Key: "frames", Class: exact, Detail: d.String(), Regress: true})
		}
	case "hist":
		for _, e := range hist.Diff(a.hist, b.hist) {
			switch {
			case !e.InB:
				e.Detail = "only in a"
			case !e.InA:
				e.Detail = "only in b"
			}
			findings = append(findings, finding{Key: e.Key, Class: exact, Detail: e.Detail, Regress: true})
		}
	default:
		findings = compare(a.scalars, b.scalars)
	}
	return findings
}

// checked is one -check outcome.
type checked struct {
	Path   string `json:"path"`
	Detail string `json:"detail"`
}

// result is the one outcome type, rendered as text or -json. Files is
// set by -check, everything below it by a comparison.
type result struct {
	Kind        string    `json:"kind"`
	Files       []checked `json:"files,omitempty"`
	A           string    `json:"a,omitempty"`
	B           string    `json:"b,omitempty"`
	Entries     int       `json:"entries"` // in A: frames, history series or scalar keys
	Identical   bool      `json:"identical"`
	Regressions int       `json:"regressions"`
	Differences []finding `json:"differences"`
}

func (r result) text(w io.Writer, quiet bool) {
	for _, c := range r.Files {
		fmt.Fprintf(w, "%s: ok (%s)\n", c.Path, c.Detail)
	}
	if r.Files != nil {
		return
	}
	for _, f := range r.Differences {
		if f.Regress || !quiet {
			fmt.Fprintln(w, f)
		}
	}
	fmt.Fprintf(w, "rwc-diff: %s: %d entries, %d difference(s), %d regression(s)\n",
		r.Kind, r.Entries, len(r.Differences), r.Regressions)
}

func run(args []string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "rwc-diff: %v\n", err)
		return 2
	}
	fs := flag.NewFlagSet("rwc-diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	oldSHA := fs.String("old-sha", "", "select this SHA's entry when A is a bench history (prefix match; default: last line)")
	newSHA := fs.String("new-sha", "", "select this SHA's entry when B is a bench history (prefix match; default: last line)")
	check := fs.Bool("check", false, "parse-validate each file instead of comparing two")
	jsonOut := fs.Bool("json", false, "render the result as one machine-readable JSON object on stdout")
	quiet := fs.Bool("quiet", false, "print failing differences only")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: rwc-diff [flags] A B\n       rwc-diff [-json] -check FILE...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	paths := fs.Args()
	if len(paths) == 0 || !*check && len(paths) != 2 {
		fs.Usage()
		return 2
	}

	var res result
	if *check {
		res = result{Kind: "check", Files: []checked{}, Identical: true}
		for _, path := range paths {
			a, err := open(path, "")
			if err != nil {
				return fail(err)
			}
			res.Files = append(res.Files, checked{path, fmt.Sprintf("%s, %d entries", a.kind, a.n)})
		}
	} else {
		a, err := open(paths[0], *oldSHA)
		if err != nil {
			return fail(err)
		}
		b, err := open(paths[1], *newSHA)
		if err != nil {
			return fail(err)
		}
		if a.kind != b.kind {
			return fail(fmt.Errorf("cannot compare %s artifact %s against %s artifact %s", a.kind, paths[0], b.kind, paths[1]))
		}
		res = result{Kind: a.kind, A: paths[0], B: paths[1], Entries: a.n, Differences: append([]finding{}, diff(a, b)...)}
		for _, f := range res.Differences {
			if f.Regress {
				res.Regressions++
			}
		}
		res.Identical = len(res.Differences) == 0
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return fail(err)
		}
	} else {
		res.text(stdout, *quiet)
	}
	if res.Regressions > 0 {
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
