package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/obs/perf"
)

// These tests carry over every behaviour the rwc-obsdiff, rwc-perfdiff
// and obs.DiffTotals tests checked, under their old names, on the same
// inputs — through the command's run() wherever the old assertion had
// an exit status behind it.

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeProm renders a key → value map as a Prometheus exposition, the
// scalar artifact whose every key is exact-class.
func writeProm(t *testing.T, name string, totals map[string]float64) string {
	t.Helper()
	keys := make([]string, 0, len(totals))
	for k := range totals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s %v\n", k, totals[k]) // %v renders NaN, +Inf and -Inf as the exposition format spells them
	}
	return writeFile(t, name, sb.String())
}

// writePerfArtifact writes a -perf-out style artifact: timed phases
// (wall clock, differs run to run) plus a work-counter copy
// (deterministic, must compare exactly).
func writePerfArtifact(t *testing.T, name string, phaseNs time.Duration, work map[string]float64) string {
	t.Helper()
	rec := perf.New("rwc-diff-test")
	rec.Observe("wan.round/dynamic", phaseNs)
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf, work); err != nil {
		t.Fatal(err)
	}
	return writeFile(t, name, buf.String())
}

// diffJSON runs `rwc-diff -json args...` and decodes the result.
func diffJSON(t *testing.T, args ...string) (exit int, res result, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	exit = run(append([]string{"-json"}, args...), &out, &errb)
	if exit != 2 {
		if err := json.Unmarshal(out.Bytes(), &res); err != nil {
			t.Fatalf("-json output does not decode: %v\n%s", err, out.String())
		}
	}
	return exit, res, errb.String()
}

func regressed(fs []finding) map[string]bool {
	m := map[string]bool{}
	for _, f := range fs {
		if f.Regress {
			m[f.Key] = true
		}
	}
	return m
}

func TestDiffTotalsEmptyOnEqual(t *testing.T) {
	a := writeProm(t, "a.prom", map[string]float64{"x": 1, `y{l="v"}`: 2.5})
	b := writeProm(t, "b.prom", map[string]float64{`y{l="v"}`: 2.5, "x": 1})
	exit, res, _ := diffJSON(t, a, b)
	if exit != 0 || !res.Identical || len(res.Differences) != 0 || res.Entries != 2 {
		t.Fatalf("equal maps diffed: exit %d, %+v", exit, res)
	}
}

func TestDiffTotalsReportsAllThreeKinds(t *testing.T) {
	a := writeProm(t, "a.prom", map[string]float64{"only_a": 1, "both_same": 5, "both_diff": 10})
	b := writeProm(t, "b.prom", map[string]float64{"only_b": 2, "both_same": 5, "both_diff": 11})
	exit, res, _ := diffJSON(t, a, b)
	d := res.Differences
	if exit != 1 || len(d) != 3 || res.Regressions != 3 {
		t.Fatalf("want exit 1 with 3 failing entries, got exit %d: %+v", exit, res)
	}
	// Sorted key order: both_diff, only_a, only_b.
	if d[0].Key != "both_diff" || *d[0].A != 10 || *d[0].B != 11 {
		t.Fatalf("entry 0 = %+v", d[0])
	}
	if d[1].Key != "only_a" || d[1].A == nil || d[1].B != nil {
		t.Fatalf("entry 1 = %+v", d[1])
	}
	if d[2].Key != "only_b" || d[2].A != nil || d[2].B == nil {
		t.Fatalf("entry 2 = %+v", d[2])
	}
	var out bytes.Buffer
	if exit := run([]string{a, b}, &out, &out); exit != 1 {
		t.Fatalf("text mode exit %d", exit)
	}
	for _, want := range []string{
		"REGRESS exact     both_diff: 10 -> 11 (delta 1)",
		"REGRESS exact     only_a: only in a (= 1)",
		"REGRESS exact     only_b: only in b (= 2)",
		"3 difference(s), 3 regression(s)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("text output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestDiffTotalsTolerance(t *testing.T) {
	a := writeProm(t, "a.prom", map[string]float64{"v": 100})
	b := writeProm(t, "b.prom", map[string]float64{"v": 100.4})
	if exit, res, _ := diffJSON(t, "-tol", "0.5", a, b); exit != 0 || len(res.Differences) != 0 {
		t.Fatalf("within tolerance but diffed: exit %d, %+v", exit, res)
	}
	if exit, res, _ := diffJSON(t, "-tol", "0.1", a, b); exit != 1 || len(res.Differences) != 1 {
		t.Fatalf("beyond tolerance but clean: exit %d, %+v", exit, res)
	}
}

func TestDiffTotalsSpecialValues(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	exitOf := func(a, b, tol float64) int {
		t.Helper()
		var out bytes.Buffer
		return run([]string{"-tol", fmt.Sprint(tol),
			writeProm(t, "a.prom", map[string]float64{"n": a}),
			writeProm(t, "b.prom", map[string]float64{"n": b})}, &out, &out)
	}
	if exitOf(nan, nan, 0) != 0 {
		t.Fatal("NaN==NaN should hold for diffing")
	}
	if exitOf(nan, 1, 1e18) != 1 {
		t.Fatal("NaN vs number must diff regardless of tolerance")
	}
	if exitOf(inf, inf, 0) != 0 {
		t.Fatal("+Inf==+Inf should hold")
	}
	if exitOf(inf, -inf, 1e18) != 1 {
		t.Fatal("+Inf vs -Inf must diff")
	}
}

func TestLoadTotalsSniffsPerfArtifact(t *testing.T) {
	work := map[string]float64{
		`rwc_work_dijkstra_pops_total{policy="dynamic"}`:   6870,
		`rwc_work_arc_relaxations_total{policy="dynamic"}`: 18455,
	}
	a, err := open(writePerfArtifact(t, "a.json", time.Millisecond, work), "")
	if err != nil {
		t.Fatal(err)
	}
	if a.kind != "perf" {
		t.Fatalf("kind = %q, want perf (sniffed by content, the extension is .json)", a.kind)
	}
	// Exactly the work counters gate; every wall-clock field is at most
	// informational.
	for k, m := range a.scalars {
		want, isWork := work[k]
		switch {
		case isWork && (m.class != classExact || m.value != want):
			t.Fatalf("%s = %+v, want %v/exact", k, m, want)
		case !isWork && m.class != classInfo:
			t.Fatalf("non-work key %q leaked into the gated set as %v", k, m.class)
		case !isWork && strings.HasPrefix(k, perf.WorkPrefix):
			t.Fatalf("unexpected work key %q", k)
		}
	}
	for k := range work {
		if _, ok := a.scalars[k]; !ok {
			t.Fatalf("work counter %s missing", k)
		}
	}
}

func TestPerfArtifactsDiffOnWorkNotWall(t *testing.T) {
	work := map[string]float64{`rwc_work_dijkstra_pops_total{policy="dynamic"}`: 6870}
	a := writePerfArtifact(t, "a.json", time.Millisecond, work)
	// Wildly different wall latencies, identical work: artifacts agree.
	b := writePerfArtifact(t, "b.json", time.Minute, work)
	if exit, res, _ := diffJSON(t, a, b); exit != 0 || res.Regressions != 0 {
		t.Fatalf("identical work must agree regardless of wall time, got exit %d %+v", exit, res)
	}
	// Work drift of a single unit is a difference: exact by design.
	drifted := map[string]float64{`rwc_work_dijkstra_pops_total{policy="dynamic"}`: 6871}
	c := writePerfArtifact(t, "c.json", time.Millisecond, drifted)
	if exit, res, _ := diffJSON(t, a, c); exit != 1 || res.Regressions != 1 {
		t.Fatalf("work drift must diff, got exit %d %+v", exit, res)
	}
	// One comparison rule for the work copy: a counter present on one
	// side only is drift too (rwc-perfdiff used to let it pass).
	renamed := map[string]float64{`rwc_work_heap_pops_total{policy="dynamic"}`: 6870}
	d := writePerfArtifact(t, "d.json", time.Millisecond, renamed)
	if exit, res, _ := diffJSON(t, a, d); exit != 1 || res.Regressions != 2 {
		t.Fatalf("one-sided work counters must diff, got exit %d %+v", exit, res)
	}
}

func TestLoadTotalsPerfWithoutWork(t *testing.T) {
	a, err := open(writePerfArtifact(t, "empty.json", time.Millisecond, nil), "")
	if err != nil {
		t.Fatal(err)
	}
	for k, m := range a.scalars {
		if m.class != classInfo {
			t.Fatalf("work-less perf artifact gates on %q (%v)", k, m.class)
		}
	}
	if exit, _, _ := diffJSON(t, writePerfArtifact(t, "e1.json", time.Millisecond, nil),
		writePerfArtifact(t, "e2.json", time.Second, nil)); exit != 0 {
		t.Fatalf("two work-less perf artifacts must agree, exit %d", exit)
	}
}

const historyTwoEntries = `{"sha":"aaa1111","date":"2026-08-01","benchmarks":{"BenchmarkX":{"iterations":10,"ns_per_op":100,"allocs_per_op":4}}}
{"sha":"bbb2222","date":"2026-08-02","benchmarks":{"BenchmarkX":{"iterations":10,"ns_per_op":120,"allocs_per_op":4}}}
`

func TestLoadRecordHistorySelectsBySHAPrefix(t *testing.T) {
	path := writeFile(t, "hist.jsonl", historyTwoEntries)
	a, err := open(path, "aaa")
	if err != nil {
		t.Fatal(err)
	}
	if a.kind != "bench" {
		t.Fatalf("kind = %q, want bench (a history entry is a bench record)", a.kind)
	}
	if got := a.scalars["BenchmarkX ns/op"].value; got != 100 {
		t.Fatalf("sha aaa ns/op = %v, want 100", got)
	}
	// Empty SHA selects the last entry.
	if a, err = open(path, ""); err != nil {
		t.Fatal(err)
	}
	if got := a.scalars["BenchmarkX ns/op"].value; got != 120 {
		t.Fatalf("last-entry ns/op = %v, want 120", got)
	}
	if _, err := open(path, "zzz"); err == nil {
		t.Fatal("unknown SHA should fail")
	}
	// Through the command: 100 -> 120 is inside the 1.5x band, outside a
	// 1.1x one, and an unknown SHA is a usage error.
	if exit, res, _ := diffJSON(t, "-old-sha", "aaa", "-new-sha", "bbb", path, path); exit != 0 || len(res.Differences) != 1 {
		t.Fatalf("exit %d, %+v", exit, res)
	}
	if exit, _, _ := diffJSON(t, "-ns-tol", "1.1", "-old-sha", "aaa", "-new-sha", "bbb", path, path); exit != 1 {
		t.Fatalf("1.2x growth under -ns-tol 1.1: exit %d, want 1", exit)
	}
	if exit, _, stderr := diffJSON(t, "-old-sha", "zzz", path, path); exit != 2 || !strings.Contains(stderr, "zzz") {
		t.Fatalf("unknown SHA: exit %d, stderr %q", exit, stderr)
	}
}

const benchDoc = `{
  "BenchmarkY": {"iterations": 5, "ns_per_op": 10, "bytes_per_op": 64, "allocs_per_op": 2, "metrics": {"satisfied": 0.97}}
}`

func TestLoadRecordBenchDocument(t *testing.T) {
	path := writeFile(t, "bench.json", benchDoc)
	a, err := open(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if a.kind != "bench" {
		t.Fatalf("kind = %q, want bench", a.kind)
	}
	for name, want := range map[string]metric{
		"BenchmarkY ns/op":     {10, classNs},
		"BenchmarkY B/op":      {64, classBytes},
		"BenchmarkY allocs/op": {2, classAllocs},
		"BenchmarkY satisfied": {0.97, classInfo},
	} {
		if got, ok := a.scalars[name]; !ok || got != want {
			t.Fatalf("%s = %+v ok=%v, want %+v", name, got, ok, want)
		}
	}
	// A bench document cannot answer a SHA query.
	if _, err := open(path, "abc"); err == nil {
		t.Fatal("SHA selection against a bench document should fail")
	}
	if exit, _, _ := diffJSON(t, "-old-sha", "abc", path, path); exit != 2 {
		t.Fatalf("SHA selection against a bench document: exit %d, want 2", exit)
	}
	// A bench document and a history entry share one metric space.
	hist := writeFile(t, "hist.jsonl", historyTwoEntries)
	if exit, res, _ := diffJSON(t, path, hist); exit != 0 || res.Kind != "bench" {
		t.Fatalf("bench vs history: exit %d, %+v", exit, res)
	}
}

func TestLoadRecordPerfArtifact(t *testing.T) {
	rec := perf.New("test")
	rec.Observe("solve", 1000)
	rec.Observe("solve", 3000)
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf, map[string]float64{"rwc_work_dijkstra_pops_total": 42}); err != nil {
		t.Fatal(err)
	}
	a, err := open(writeFile(t, "perf.json", buf.String()), "")
	if err != nil {
		t.Fatal(err)
	}
	if a.kind != "perf" {
		t.Fatalf("kind = %q, want perf", a.kind)
	}
	if got := a.scalars["rwc_work_dijkstra_pops_total"]; got != (metric{42, classExact}) {
		t.Fatalf("work counter = %+v, want 42/exact", got)
	}
	// Phase wall time is informational: mean of the two observations.
	if got := a.scalars["solve mean_ns"]; got != (metric{2000, classInfo}) {
		t.Fatalf("phase mean = %+v, want 2000/info", got)
	}
}

func TestLoadRecordLoadReport(t *testing.T) {
	rep := load.Report{
		Tool: "rwc-loadgen", Target: "http://x", Seed: 1, DurationNs: 3e9,
		Scrape:  load.ClientStats{Requests: 30, Errors: 3, P50Ns: 1e6, P99Ns: 4e6, MaxNs: 9e6},
		Query:   load.ClientStats{Requests: 10, P99Ns: 2e6},
		Demand:  load.DemandStats{Batches: 20, Demands: 320, Rejected: 40},
		SSE:     load.SSEStats{Events: 90, DroppedSlowConsumer: 10, DropFraction: 0.1, EventsPerSec: 30},
		Service: load.ServiceStats{DecisionsPerSec: 25, RoundsDelta: 12},
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := writeFile(t, "load.json", buf.String())
	a, err := open(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if a.kind != "load" {
		t.Fatalf("kind = %q, want load", a.kind)
	}
	for name, want := range map[string]metric{
		"loadgen scrape p99_ns":         {4e6, classNs},
		"loadgen sse drop_fraction":     {0.1, classRatio},
		"loadgen scrape error_fraction": {0.1, classRatio},
		// Throughput gates inverted: seconds per decision, so slower = growth.
		"loadgen service seconds_per_decision": {1.0 / 25, classNs},
	} {
		if got := a.scalars[name]; got != want {
			t.Fatalf("%s = %+v, want %+v", name, got, want)
		}
	}
	if got := a.scalars["loadgen demand batches"]; got.class != classInfo {
		t.Fatalf("offered-load volume must stay informational, got %+v", got)
	}
	// A load report only compares to a load report.
	if exit, _, stderr := diffJSON(t, path, writeFile(t, "bench.json", benchDoc)); exit != 2 || !strings.Contains(stderr, "cannot compare") {
		t.Fatalf("load vs bench: exit %d, stderr %q", exit, stderr)
	}
}

// defaultTol is the flag defaults.
var defaultTol = tolerances{classNs: 1.5, classBytes: 1.5, classAllocs: 1.2, classRatio: 2.0}

func TestCompareToleranceBands(t *testing.T) {
	oldM := map[string]metric{
		"a ns/op":       {100, classNs},
		"b ns/op":       {100, classNs},
		"c allocs/op":   {10, classAllocs},
		"work_total":    {500, classExact},
		"info headline": {0.9, classInfo},
		"gone ns/op":    {5, classNs},
	}
	newM := map[string]metric{
		"a ns/op":       {149, classNs},    // within 1.5x: ok
		"b ns/op":       {151, classNs},    // past 1.5x: regression
		"c allocs/op":   {11, classAllocs}, // within 1.2x: ok
		"work_total":    {501, classExact}, // any drift: regression
		"info headline": {0.5, classInfo},  // info never gates
		"added B/op":    {7, classBytes},   // one-sided, banded: listed only
	}
	findings := compare(oldM, newM, defaultTol)
	if got := regressed(findings); len(got) != 2 || !got["b ns/op"] || !got["work_total"] {
		t.Fatalf("regressions = %v, want exactly {b ns/op, work_total}", got)
	}
	var onlyOld, onlyNew []string
	for _, f := range findings {
		switch {
		case f.B == nil:
			onlyOld = append(onlyOld, f.Key)
		case f.A == nil:
			onlyNew = append(onlyNew, f.Key)
		}
	}
	if len(onlyOld) != 1 || onlyOld[0] != "gone ns/op" {
		t.Fatalf("onlyOld = %v", onlyOld)
	}
	if len(onlyNew) != 1 || onlyNew[0] != "added B/op" {
		t.Fatalf("onlyNew = %v", onlyNew)
	}
}

func TestCompareWorkCounterShrinkIsAlsoDrift(t *testing.T) {
	// Deterministic counters gate in both directions: less work than
	// the baseline means the solver changed behavior, which the gate
	// must surface even though it "improved".
	a := writePerfArtifact(t, "a.json", time.Millisecond, map[string]float64{"rwc_work_x": 100})
	b := writePerfArtifact(t, "b.json", time.Millisecond, map[string]float64{"rwc_work_x": 99})
	var out bytes.Buffer
	if exit := run([]string{"-quiet", a, b}, &out, &out); exit != 1 {
		t.Fatalf("exit %d, want 1:\n%s", exit, out.String())
	}
	if !strings.Contains(out.String(), "REGRESS exact     rwc_work_x: 100 -> 99") || strings.Contains(out.String(), "info ") {
		t.Fatalf("want one work regression and, under -quiet, nothing informational:\n%s", out.String())
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	doc := func(ns float64) string {
		return fmt.Sprintf(`{"BenchmarkZ": {"iterations": 1, "ns_per_op": %v}}`, ns)
	}
	exit, res, _ := diffJSON(t, writeFile(t, "old.json", doc(0)), writeFile(t, "new.json", doc(1)))
	if exit != 1 || !regressed(res.Differences)["BenchmarkZ ns/op"] {
		t.Fatalf("growth from a zero baseline must regress, got exit %d %+v", exit, res)
	}
}

func TestCompareRatioBand(t *testing.T) {
	oldM := map[string]metric{
		"ok drop_fraction":  {0.10, classRatio},
		"bad drop_fraction": {0.10, classRatio},
		"was-zero fraction": {0, classRatio},
	}
	newM := map[string]metric{
		"ok drop_fraction":  {0.19, classRatio}, // within 2.0x: ok
		"bad drop_fraction": {0.21, classRatio}, // past 2.0x: regression
		"was-zero fraction": {0.01, classRatio}, // any growth from zero: regression
	}
	got := regressed(compare(oldM, newM, defaultTol))
	if len(got) != 2 || !got["bad drop_fraction"] || !got["was-zero fraction"] {
		t.Fatalf("ratio regressions = %v, want {bad drop_fraction, was-zero fraction}", got)
	}
}

func TestParseHistoryRejectsNonHistory(t *testing.T) {
	if _, ok := parseHistory([]byte(`{"BenchmarkX": {"iterations": 1, "ns_per_op": 2}}`)); ok {
		t.Fatal("a bench document (no benchmarks key) must not parse as history")
	}
	if _, ok := parseHistory([]byte("not json\n")); ok {
		t.Fatal("garbage must not parse as history")
	}
	if exit, _, _ := diffJSON(t, writeFile(t, "a.json", "not json\n"), writeFile(t, "b.json", "not json\n")); exit != 2 {
		t.Fatalf("garbage input: exit %d, want 2", exit)
	}
}

const manifestDoc = `{"tool": "rwc-wansim", "go_version": "go1.22.0", "seed": %d,
  "options": {"rounds": "%d"},%s
  "metric_totals": {"wan_rounds_total{policy=\"dynamic\"}": 12}}`

// TestManifestSniffedAndExact covers what only the command can: a
// manifest and a bench document are both ".json", and a manifest is
// exact on every key — seed, options and all.
func TestManifestSniffedAndExact(t *testing.T) {
	a := writeFile(t, "a.json", fmt.Sprintf(manifestDoc, 2017, 8, ""))
	exit, res, _ := diffJSON(t, a, writeFile(t, "b.json", fmt.Sprintf(manifestDoc, 2017, 8, "")))
	if exit != 0 || res.Kind != "manifest" || res.Entries != 5 {
		t.Fatalf("exit %d, %+v", exit, res)
	}
	c := writeFile(t, "c.json", fmt.Sprintf(manifestDoc, 2018, 8, ""))
	if exit, res, _ := diffJSON(t, a, c); exit != 1 || !regressed(res.Differences)["seed"] {
		t.Fatalf("seed change must diff: exit %d, %+v", exit, res)
	}
	d := writeFile(t, "d.json", fmt.Sprintf(manifestDoc, 2017, 9, ""))
	if exit, res, _ := diffJSON(t, a, d); exit != 1 || !regressed(res.Differences)["option:rounds=8"] || !regressed(res.Differences)["option:rounds=9"] {
		t.Fatalf("option change must diff on both sides: exit %d, %+v", exit, res)
	}
	// A manifest written while the schema still listed wall-clock
	// phases is one difference from a current one, not one per phase.
	old := writeFile(t, "old.json", fmt.Sprintf(manifestDoc, 2017, 8, `
  "phases": [{"name": "dynamic/round000", "wall_ns": 123}, {"name": "dynamic/round001", "wall_ns": 456}],`))
	if exit, res, _ := diffJSON(t, old, a); exit != 1 || len(res.Differences) != 1 || !regressed(res.Differences)["phases"] {
		t.Fatalf("parent-written manifest: exit %d, %+v, want the one missing key", exit, res)
	}
	if exit, _, _ := diffJSON(t, a, writeFile(t, "bench.json", benchDoc)); exit != 2 {
		t.Fatalf("manifest vs bench document: exit %d, want 2", exit)
	}
}

func TestCheckAndUsage(t *testing.T) {
	prom := writeProm(t, "a.prom", map[string]float64{"x": 1})
	var out, errb bytes.Buffer
	if exit := run([]string{"-check", prom, writeFile(t, "bench.json", benchDoc)}, &out, &errb); exit != 0 {
		t.Fatalf("-check of two good files: exit %d, stderr %s", exit, errb.String())
	}
	if !strings.Contains(out.String(), "a.prom: ok (prom, 1 entries)") || !strings.Contains(out.String(), "bench.json: ok (bench, 4 entries)") {
		t.Fatalf("-check output:\n%s", out.String())
	}
	for name, args := range map[string][]string{
		"-check of garbage":     {"-check", writeFile(t, "g.prom", "x{ 1\n")},
		"-check without files":  {"-check"},
		"one argument":          {prom},
		"band below 1":          {"-ns-tol", "0.9", prom, prom},
		"unknown flag":          {"-mode", "exact", prom, prom},
		"flight against scalar": {writeFile(t, "x.flight", "RWCFLT1\n"), prom},
		"truncated flight":      {"-check", writeFile(t, "x.flight", "RWCFLT1\n")},
		"sha on a framed file":  {"-old-sha", "abc", writeFile(t, "x.hist", "RWCHIST1\n"), prom},
	} {
		if exit := run(args, &out, &errb); exit != 2 {
			t.Errorf("%s: exit %d, want 2", name, exit)
		}
	}
}
