package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/experiments"
	"repro/internal/obs/hist"
)

// throughputLog records the log `rwc-experiments -quick -figure
// throughput -flight-out` writes: one named run, whose run table
// records its round interval.
func throughputLog(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.flight")
	plane := daemon.Plane{Artifacts: daemon.Artifacts{FlightOut: path}}
	bundle, err := plane.Build("rwc-experiments", experiments.QuickOptions().Seed)
	if err != nil {
		t.Fatal(err)
	}
	opts := experiments.QuickOptions()
	opts.Obs, opts.Flight = bundle.Obs, bundle.Flight
	if _, err := experiments.ThroughputGains(opts); err != nil {
		t.Fatal(err)
	}
	if err := bundle.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

// stdoutOf runs one subcommand in-process and returns what it printed
// (a few lines, well inside the pipe's buffer). A subcommand that fails
// exits the process (status 2), which fails the test binary.
func stdoutOf(t *testing.T, cmd func([]string), args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	cmd(args)
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestHistRebuildsExperimentsLog: hist reads each run's interval from
// the run table, so an rwc-experiments log rebuilds its per-link
// history on the throughput simulation's 6 h rounds.
func TestHistRebuildsExperimentsLog(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.hist")
	stdoutOf(t, cmdHist, throughputLog(t), "-hist-out", out)
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := hist.ReadArchive(f)
	if err != nil {
		t.Fatal(err)
	}
	links := 0
	for _, s := range a.Series {
		if !strings.HasPrefix(s.Name, "wan_link_") {
			continue
		}
		links++
		for i := 1; i < len(s.Samples); i++ {
			if step := s.Samples[i].T - s.Samples[i-1].T; step != 6*time.Hour {
				t.Fatalf("%s: samples %d→%d step %v, want 6h", s.Key(), i-1, i, step)
			}
		}
	}
	if links == 0 {
		t.Fatal("rebuilt archive holds no wan_link_* series")
	}
}

// TestExplainExperimentsLog: a log with one run is explained from that
// run, even when it is named, as rwc-experiments names its throughput
// figure's.
func TestExplainExperimentsLog(t *testing.T) {
	got := stdoutOf(t, cmdExplain, throughputLog(t), "-round", "2", "-edge", "0")
	if !strings.Contains(got, "· run throughput-gains · policy dynamic · round 2") ||
		!strings.Contains(got, "6. applied capacity") {
		t.Fatalf("explain output:\n%s", got)
	}
}
