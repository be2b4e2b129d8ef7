// Command rwc-replay reads flight logs (recorded with -flight-out):
// re-rendering a run's artifacts, explaining one link's capacity
// decision, or rebuilding the run's per-link history. Two logs are
// bisected to their first diverging round by `rwc-diff a.flight
// b.flight`.
//
// Usage:
//
//	rwc-replay replay  run.flight [-metrics-out m.prom] [-trace-out t.jsonl]
//	                              [-jsonl frames.jsonl]
//	                              [-verify-metrics m.prom] [-verify-trace t.jsonl]
//	rwc-replay explain run.flight -round N (-link src->dst | -edge id)
//	rwc-replay hist    run.flight [-hist-out run.hist] [-hist-jsonl h.jsonl]
//
// replay prints a log summary and verifies every frame's state hash;
// -metrics-out and -trace-out write the metrics/trace artifacts the
// log's trailer holds, the bytes the recording run wrote
// (-verify-metrics / -verify-trace compare them with the originals,
// exit 1 on mismatch). -jsonl exports the frames as JSONL.
//
// explain prints the causal chain behind one link's dynamic-policy
// capacity in one round of the log's unnamed run (rwc-wansim and
// rwc-wansimd record it; a reloaded daemon adds gen2, gen3, ... after
// it): SNR sample → modulation table lookup →
// fake-edge ⟨capacity, penalty⟩ → solver selection → decision gate →
// applied capacity. -link and -edge each name the link; giving both is
// a usage error.
//
// hist rebuilds the per-link series (wan_link_snr_db,
// wan_link_capacity_gbps) from the log's frames as a metrics-history
// store: the one way to get them as history, since a run's own
// -hist-out archive holds its registry series only. -hist-out writes
// the canonical binary archive, -hist-jsonl the JSONL form; round r of
// a run is stamped at the run's origin + r × its interval, as its run
// table records them.
package main

import (
	"bytes"
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs/flight"
)

// errUsage exits 2 with the usage line, errDiffers (a -verify-*
// mismatch) exits 1, and any other error exits 2.
var (
	errUsage   = errors.New("usage: rwc-replay <replay|explain|hist> [flags] <log>")
	errDiffers = errors.New("differs")
)

// readLog parses a subcommand's flags while allowing the log path to
// come first, between, or after them — stdlib flag parsing stops at the
// first positional, so this re-parses the remainder after collecting
// each one — and reads the log if there is exactly one and the flags
// are ok.
func readLog(fs *flag.FlagSet, args []string, ok func() bool) (*flight.Log, error) {
	var logs []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		if fs.NArg() == 0 {
			break
		}
		logs, args = append(logs, fs.Arg(0)), fs.Args()[1:]
	}
	if len(logs) != 1 || !ok() {
		return nil, errUsage
	}
	f, err := os.Open(logs[0])
	if err != nil {
		return nil, err
	}
	defer f.Close()
	log, err := flight.ReadLog(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", logs[0], err)
	}
	return log, nil
}

// writeArtifact writes one re-rendered artifact to path, if one is
// given.
func writeArtifact(path string, render func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeBytes renders bytes the recording run wrote.
func writeBytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error { _, err := w.Write(b); return err }
}

// verifyAgainst byte-compares a recorded artifact with an original
// file, if one is given.
func verifyAgainst(stdout io.Writer, name, original string, recorded []byte) error {
	if original == "" {
		return nil
	}
	want, err := os.ReadFile(original)
	if err != nil {
		return err
	}
	if !bytes.Equal(recorded, want) {
		return fmt.Errorf("recorded %s %w from %s (%d vs %d bytes)", name, errDiffers, original, len(recorded), len(want))
	}
	fmt.Fprintf(stdout, "%s: byte-identical to %s\n", name, original)
	return nil
}

func cmdReplay(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	metricsOut := fs.String("metrics-out", "", "re-render the run's Prometheus metrics to this file")
	traceOut := fs.String("trace-out", "", "re-render the run's JSONL trace to this file")
	jsonlOut := fs.String("jsonl", "", "export the frames as JSONL to this file")
	verifyMetrics := fs.String("verify-metrics", "", "byte-compare the re-rendered metrics against this original (exit 1 on mismatch)")
	verifyTrace := fs.String("verify-trace", "", "byte-compare the re-rendered trace against this original (exit 1 on mismatch)")
	log, err := readLog(fs, args, func() bool { return true })
	if err == nil {
		err = log.VerifyHashes()
	}
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, log.Summary())
	fmt.Fprintln(stdout, "state hashes: verified")
	return cmp.Or(
		writeArtifact(*metricsOut, writeBytes(log.Trailer.Metrics)),
		writeArtifact(*traceOut, writeBytes(log.Trailer.Trace)),
		writeArtifact(*jsonlOut, log.WriteJSONL),
		verifyAgainst(stdout, "metrics", *verifyMetrics, log.Trailer.Metrics),
		verifyAgainst(stdout, "trace", *verifyTrace, log.Trailer.Trace))
}

func cmdExplain(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	round := fs.Int("round", -1, "round to explain (required)")
	link := fs.String("link", "", "link name, e.g. Seattle->Denver")
	edge := fs.Int("edge", -1, "edge ID (alternative to -link)")
	log, err := readLog(fs, args, func() bool { return *round >= 0 && (*link != "" || *edge >= 0) })
	if err != nil {
		return err
	}
	if *link != "" && *edge >= 0 {
		return errors.New("explain: -link and -edge both name the link; give one")
	}
	ref := *link
	if ref == "" {
		ref = fmt.Sprint(*edge)
	}
	e, err := log.Explain(*round, ref)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, e.Format())
	return nil
}

func cmdHist(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	histOut := fs.String("hist-out", "", "write the rebuilt history archive (canonical binary) to this file")
	histJSONL := fs.String("hist-jsonl", "", "write the rebuilt history archive as JSONL to this file")
	log, err := readLog(fs, args, func() bool { return *histOut != "" || *histJSONL != "" })
	if err != nil {
		return err
	}
	archive := log.History().Archive()
	if err := cmp.Or(writeArtifact(*histOut, archive.WriteBinary), writeArtifact(*histJSONL, archive.WriteJSONL)); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "history: %d series rebuilt from %d frames\n", len(archive.Series), len(log.Frames))
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	cmds := map[string]func(*flag.FlagSet, []string, io.Writer) error{
		"replay": cmdReplay, "explain": cmdExplain, "hist": cmdHist,
	}
	err := errUsage
	if len(args) > 0 && cmds[args[0]] != nil {
		fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
		fs.SetOutput(stderr)
		err = cmds[args[0]](fs, args[1:], stdout)
	}
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err == errUsage {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stderr, "rwc-replay: %v\n", err)
	if errors.Is(err, errDiffers) {
		return 1
	}
	return 2
}
