// Command rwc-benchjson converts `go test -bench` output on stdin into
// a JSON document on stdout: benchmark name → ns/op, allocs/op,
// B/op, and every custom b.ReportMetric value. The Makefile's
// bench-json target pipes the quick benchmark suite through it to
// regenerate BENCH_quick.json, giving CI and reviewers a diffable
// record of both performance and the headline reproduction numbers
// the benchmarks report as metrics.
//
// With -jsonl the document is instead emitted as a single compact JSON
// line {"sha":...,"date":...,"benchmarks":{...}} meant for a growing
// record (BENCH_history.jsonl). -sha and -date label the line; the
// Makefile derives both from git so the line is reproducible — no wall
// clock is read here.
//
// -merge FILE (implies -jsonl) merges the record into FILE in place
// instead of printing it: an existing entry with the same sha has the
// new benchmarks folded in (same-name benchmarks replaced, others
// kept), so re-running the bench target at one commit updates that
// commit's entry instead of appending a duplicate line — which would
// make rwc-diff's SHA selection ambiguous and grow the file
// without bound. New SHAs append at the end; existing entry order is
// preserved. The rewrite goes through a temp file + rename, so a
// crashed run never truncates the history.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | rwc-benchjson > BENCH.json
//	go test -bench=History -benchmem ./internal/obs/... |
//	    rwc-benchjson -sha abc1234 -date 2026-08-08 -merge BENCH_history.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// result is one parsed benchmark line.
type result struct {
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp float64            `json:"bytes_per_op,omitempty"`
	AllocsOp   float64            `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// historyRecord is one BENCH_history.jsonl line.
type historyRecord struct {
	SHA        string            `json:"sha,omitempty"`
	Date       string            `json:"date,omitempty"`
	Benchmarks map[string]result `json:"benchmarks"`
}

// mergeHistory folds rec into the JSONL history at path: same-SHA
// entries have their benchmarks replaced by name (other benchmarks
// kept), new SHAs append, entry order is preserved. The file is
// rewritten atomically via a temp file in the same directory.
func mergeHistory(path string, rec historyRecord) error {
	var entries []historyRecord
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var e historyRecord
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return fmt.Errorf("%s:%d: %v", path, i+1, err)
		}
		entries = append(entries, e)
	}
	merged := false
	for i := range entries {
		if entries[i].SHA == rec.SHA {
			if entries[i].Benchmarks == nil {
				entries[i].Benchmarks = make(map[string]result)
			}
			for name, r := range rec.Benchmarks {
				entries[i].Benchmarks[name] = r
			}
			if rec.Date != "" {
				entries[i].Date = rec.Date
			}
			merged = true
			break
		}
	}
	if !merged {
		entries = append(entries, rec)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	for _, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			tmp.Close()
			return err
		}
		if _, err := fmt.Fprintf(tmp, "%s\n", line); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// parseLine parses one `BenchmarkName-P  N  v unit  v unit ...` line.
// Returns the benchmark name (CPU suffix stripped) and ok=false for
// non-benchmark lines.
func parseLine(line string) (string, result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the GOMAXPROCS suffix (Benchmark...-8).
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", result{}, false
	}
	r := result{Iterations: iters}
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsOp = v
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	return name, r, true
}

func main() {
	jsonl := flag.Bool("jsonl", false, "emit one compact JSON line (for appending to a JSONL record) instead of an indented document")
	sha := flag.String("sha", "", "git commit SHA recorded on the -jsonl line")
	date := flag.String("date", "", "commit date recorded on the -jsonl line (derive from git, not the wall clock)")
	merge := flag.String("merge", "", "merge the record into this JSONL history in place (dedupe by sha, replace same-name benchmarks) instead of printing; implies -jsonl")
	flag.Parse()

	results := make(map[string]result)
	var order []string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		name, r, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		if _, seen := results[name]; !seen {
			order = append(order, name)
		}
		results[name] = r
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "rwc-benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "rwc-benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	sort.Strings(order)
	if *merge != "" {
		if err := mergeHistory(*merge, historyRecord{SHA: *sha, Date: *date, Benchmarks: results}); err != nil {
			fmt.Fprintf(os.Stderr, "rwc-benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *jsonl {
		// One compact line per invocation; map keys marshal in sorted
		// order, so the line is stable for a given suite.
		line, err := json.Marshal(historyRecord{*sha, *date, results})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rwc-benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		return
	}
	// Ordered output: marshal field by field so the document is stable
	// under re-runs of the same suite.
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintln(out, "{")
	for i, name := range order {
		blob, err := json.Marshal(results[name])
		if err != nil {
			fmt.Fprintf(os.Stderr, "rwc-benchjson: %v\n", err)
			os.Exit(1)
		}
		comma := ","
		if i == len(order)-1 {
			comma = ""
		}
		fmt.Fprintf(out, "  %q: %s%s\n", name, blob, comma)
	}
	fmt.Fprintln(out, "}")
	if err := out.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "rwc-benchjson: %v\n", err)
		os.Exit(1)
	}
}
