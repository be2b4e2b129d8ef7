// Command rwc-replay reads flight logs (recorded with -flight-out):
// re-rendering a run's artifacts, explaining one link's capacity
// decision, or bisecting two logs to the first diverging round.
//
// Usage:
//
//	rwc-replay replay  run.flight [-metrics-out m.prom] [-trace-out t.jsonl]
//	                              [-links-out links.prom] [-jsonl frames.jsonl]
//	                              [-verify-metrics m.prom] [-verify-trace t.jsonl]
//	rwc-replay explain run.flight -round N (-link src->dst | -edge id)
//	                              [-policy dynamic] [-run name]
//	rwc-replay hist    run.flight [-hist-out run.hist] [-hist-jsonl h.jsonl]
//	                              [-interval 6h]
//	rwc-replay bisect  a.flight b.flight
//
// replay prints a log summary and verifies every frame's state hash;
// -metrics-out and -trace-out re-render the metrics/trace artifacts
// from the log's trailer, byte-identical to the files the recording
// run wrote (-verify-metrics / -verify-trace assert that against the
// originals, exit 1 on mismatch). -links-out renders the per-link
// labeled series; -jsonl exports the frames as JSONL.
//
// explain prints the causal chain behind one link's capacity in one
// round: SNR sample → modulation table lookup → fake-edge ⟨capacity,
// penalty⟩ → solver selection → decision gate → applied capacity.
//
// hist rebuilds the metrics-history store from the log's frames —
// byte-identical to the recorder-owned series of a live -hist-out run,
// because flight frames are a superset of the history the recorder
// captures. -hist-out writes the canonical binary archive, -hist-jsonl
// the JSONL form; -interval overrides the round interval for logs
// whose header predates the interval field.
//
// bisect exits 0 when the logs are behaviorally identical, 1 with the
// first diverging (round, link, field) on divergence, 2 on errors —
// the same contract as rwc-diff.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"repro/internal/obs/flight"
)

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rwc-replay: %v\n", err)
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rwc-replay <replay|explain|hist|bisect> [flags] <log...>")
	os.Exit(2)
}

// parseMixed parses a subcommand's flags while allowing positional
// arguments (the log paths) to come first, between, or after flags —
// stdlib flag parsing stops at the first positional, so this re-parses
// the remainder after collecting each one.
func parseMixed(fs *flag.FlagSet, args []string) []string {
	var positional []string
	for {
		_ = fs.Parse(args)
		rest := fs.Args()
		if len(rest) == 0 {
			return positional
		}
		positional = append(positional, rest[0])
		args = rest[1:]
	}
}

func readLog(path string) *flight.Log {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	log, err := flight.ReadLog(f)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return log
}

// writeArtifact writes one re-rendered artifact to path.
func writeArtifact(path string, render func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := render(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// renderMetrics re-renders the recording run's Prometheus exposition
// from the trailer's registry dump.
func renderMetrics(log *flight.Log, f *os.File) error {
	return log.Trailer.Metrics.Restore().WritePrometheus(f)
}

// renderTrace re-renders the recording run's JSONL trace from the
// trailer's canonical event lines.
func renderTrace(log *flight.Log, f *os.File) error {
	for _, line := range log.Trailer.Trace {
		if _, err := f.Write(append([]byte(line), '\n')); err != nil {
			return err
		}
	}
	return nil
}

// verifyAgainst renders an artifact into memory and byte-compares it
// with an original file, exiting 1 on mismatch.
func verifyAgainst(name, original string, render func(*bytes.Buffer) error) {
	want, err := os.ReadFile(original)
	if err != nil {
		fatal(err)
	}
	var got bytes.Buffer
	if err := render(&got); err != nil {
		fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		fmt.Fprintf(os.Stderr, "rwc-replay: re-rendered %s differs from %s (%d vs %d bytes)\n",
			name, original, got.Len(), len(want))
		os.Exit(1)
	}
	fmt.Printf("%s: byte-identical to %s\n", name, original)
}

func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	metricsOut := fs.String("metrics-out", "", "re-render the run's Prometheus metrics to this file")
	traceOut := fs.String("trace-out", "", "re-render the run's JSONL trace to this file")
	linksOut := fs.String("links-out", "", "render the per-link labeled series (Prometheus text) to this file")
	jsonlOut := fs.String("jsonl", "", "export the frames as JSONL to this file")
	verifyMetrics := fs.String("verify-metrics", "", "byte-compare the re-rendered metrics against this original (exit 1 on mismatch)")
	verifyTrace := fs.String("verify-trace", "", "byte-compare the re-rendered trace against this original (exit 1 on mismatch)")
	logs := parseMixed(fs, args)
	if len(logs) != 1 {
		usage()
	}
	log := readLog(logs[0])
	if err := log.VerifyHashes(); err != nil {
		fatal(err)
	}
	fmt.Print(log.Summary())
	fmt.Println("state hashes: verified")

	if *metricsOut != "" {
		writeArtifact(*metricsOut, func(f *os.File) error { return renderMetrics(log, f) })
	}
	if *traceOut != "" {
		writeArtifact(*traceOut, func(f *os.File) error { return renderTrace(log, f) })
	}
	if *linksOut != "" {
		writeArtifact(*linksOut, func(f *os.File) error {
			return log.Trailer.Series.Restore().WritePrometheus(f)
		})
	}
	if *jsonlOut != "" {
		writeArtifact(*jsonlOut, func(f *os.File) error { return log.WriteJSONL(f) })
	}
	if *verifyMetrics != "" {
		verifyAgainst("metrics", *verifyMetrics, func(b *bytes.Buffer) error {
			return log.Trailer.Metrics.Restore().WritePrometheus(b)
		})
	}
	if *verifyTrace != "" {
		verifyAgainst("trace", *verifyTrace, func(b *bytes.Buffer) error {
			for _, line := range log.Trailer.Trace {
				if _, err := b.Write(append([]byte(line), '\n')); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

func cmdExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	round := fs.Int("round", -1, "round to explain (required)")
	link := fs.String("link", "", "link name, e.g. Seattle->Denver")
	edge := fs.Int("edge", -1, "edge ID (alternative to -link)")
	policy := fs.String("policy", "dynamic", "policy whose decision to explain")
	run := fs.String("run", "", "run name inside the log (default the unnamed run)")
	logs := parseMixed(fs, args)
	if len(logs) != 1 || *round < 0 || (*link == "" && *edge < 0) {
		usage()
	}
	ref := *link
	if ref == "" {
		ref = fmt.Sprint(*edge)
	}
	log := readLog(logs[0])
	e, err := log.Explain(*run, *policy, *round, ref)
	if err != nil {
		fatal(err)
	}
	fmt.Print(e.Format())
}

func cmdHist(args []string) {
	fs := flag.NewFlagSet("hist", flag.ExitOnError)
	histOut := fs.String("hist-out", "", "write the rebuilt history archive (canonical binary) to this file")
	histJSONL := fs.String("hist-jsonl", "", "write the rebuilt history archive as JSONL to this file")
	interval := fs.Duration("interval", 0, "round interval for sim-time stamps (0 = take it from the log header)")
	logs := parseMixed(fs, args)
	if len(logs) != 1 || (*histOut == "" && *histJSONL == "") {
		usage()
	}
	log := readLog(logs[0])
	if *interval == 0 && log.Meta.Interval == 0 {
		fatal(fmt.Errorf("%s: log header carries no round interval; pass -interval", logs[0]))
	}
	archive := log.History(*interval).Archive()
	if *histOut != "" {
		writeArtifact(*histOut, func(f *os.File) error { return archive.WriteBinary(f) })
	}
	if *histJSONL != "" {
		writeArtifact(*histJSONL, func(f *os.File) error { return archive.WriteJSONL(f) })
	}
	fmt.Printf("history: %d series rebuilt from %d frames\n", len(archive.Series), len(log.Frames))
}

func cmdBisect(args []string) {
	fs := flag.NewFlagSet("bisect", flag.ExitOnError)
	logs := parseMixed(fs, args)
	if len(logs) != 2 {
		usage()
	}
	d := flight.Bisect(readLog(logs[0]), readLog(logs[1]))
	fmt.Println(d)
	if d.Found {
		os.Exit(1)
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "replay":
		cmdReplay(os.Args[2:])
	case "explain":
		cmdExplain(os.Args[2:])
	case "hist":
		cmdHist(os.Args[2:])
	case "bisect":
		cmdBisect(os.Args[2:])
	default:
		usage()
	}
}
