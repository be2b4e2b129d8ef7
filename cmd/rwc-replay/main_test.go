package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/gate"
	"repro/internal/obs/flight"
	"repro/internal/obs/hist"
)

// readFile is a file's bytes, "" if it cannot be read.
func readFile(path string) string {
	data, _ := os.ReadFile(path)
	return string(data)
}

// TestCLI runs each subcommand line in-process on the flight logs of an
// Abilene dynamic run (rec/f.flight), recorded with its metrics, trace
// and history, and of the same run with one SNR cell pinned to -5 dB
// (dip.flight). check holds a row to what it printed and wrote into
// out.
func TestCLI(t *testing.T) {
	rec, out := t.TempDir(), t.TempDir()
	in := func(dir, name string) string { return filepath.Join(dir, name) }
	log, dipLog := in(rec, "f.flight"), in(rec, "dip.flight")
	for _, args := range [][]string{
		{"-metrics-out", in(rec, "m.prom"), "-trace-out", in(rec, "t.jsonl"), "-hist-out", in(rec, "h.hist"), "-flight-out", log},
		{"-override-snr", "0,0,4,-5", "-flight-out", dipLog},
	} {
		var stderr bytes.Buffer
		if code := daemon.Main("rwc-wansim", append([]string{"-rounds", "8", "-policy", "dynamic"}, args...), io.Discard, &stderr); code != 0 {
			t.Fatalf("rwc-wansim %v: exit %d: %s", args, code, &stderr)
		}
	}
	explainEdge := func(t *testing.T, stdout string) {
		var want bytes.Buffer
		if code := run([]string{"explain", log, "-round", "2", "-edge", "0"}, &want, io.Discard); code != 0 || stdout != want.String() {
			t.Errorf("-edge 0 (exit %d) explains\n%s\nnot what -link Seattle->Sunnyvale does", code, &want)
		}
	}
	for _, tc := range []struct {
		name  string
		args  []string
		code  int
		check func(t *testing.T, stdout string)
		// stderr, if set, is the line the row must print to stderr.
		stderr string
	}{
		{"replay", []string{"replay", log, "-metrics-out", in(out, "m.prom"), "-trace-out", in(out, "t.jsonl"), "-jsonl", in(out, "frames.jsonl"),
			"-verify-metrics", in(rec, "m.prom"), "-verify-trace", in(rec, "t.jsonl")}, 0, checkReplay(rec, out), ""},
		{"replay-differs", []string{"replay", log, "-verify-metrics", in(rec, "t.jsonl")}, 1, nil, ""},
		{"explain-link", []string{"explain", log, "-round", "2", "-link", "Seattle->Sunnyvale"}, 0, explainEdge, ""},
		{"explain-dip", []string{"explain", dipLog, "-round", "4", "-link", "Seattle->Sunnyvale"}, 0, func(t *testing.T, stdout string) {
			// The injected dip is a forced downgrade, as the gate itself decided.
			if !strings.Contains(stdout, " verdict forced-downgrade\n") {
				t.Errorf("explain output:\n%s", stdout)
			}
		}, ""},
		{"hist", []string{"hist", log, "-hist-out", in(out, "rebuilt.hist"), "-hist-jsonl", in(out, "rebuilt.jsonl")}, 0, checkHist(rec, out), ""},
		{"usage", nil, 2, nil, ""},
		{"explain-without-round", []string{"explain", log, "-edge", "0"}, 2, nil, ""},
		{"explain-link-and-edge", []string{"explain", log, "-round", "1", "-link", "Seattle->Denver", "-edge", "3"}, 2, nil,
			"rwc-replay: explain: -link and -edge both name the link; give one\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d: %s", code, tc.code, &stderr)
			}
			if tc.check != nil {
				tc.check(t, stdout.String())
			}
			if tc.stderr != "" && stderr.String() != tc.stderr {
				t.Errorf("stderr %q, want %q", &stderr, tc.stderr)
			}
		})
	}
}

// checkReplay: the re-rendered metrics and trace are the recorded run's
// bytes, both verified, and every exported frame carries one row for
// each of Abilene's 28 links, each under a gate verdict name.
func checkReplay(rec, out string) func(t *testing.T, stdout string) {
	return func(t *testing.T, stdout string) {
		for _, name := range []string{"m.prom", "t.jsonl"} {
			if readFile(filepath.Join(out, name)) != readFile(filepath.Join(rec, name)) {
				t.Errorf("replayed %s differs from the run's", name)
			}
		}
		if !strings.Contains(stdout, "state hashes: verified\nmetrics: byte-identical") || !strings.Contains(stdout, "trace: byte-identical") {
			t.Errorf("replay output:\n%s", stdout)
		}
		frames := 0
		sc := bufio.NewScanner(strings.NewReader(readFile(filepath.Join(out, "frames.jsonl"))))
		sc.Buffer(nil, 1<<20)
		for ; sc.Scan(); frames++ {
			var f struct{ Links []struct{ Verdict string } }
			if err := json.Unmarshal(sc.Bytes(), &f); err != nil || len(f.Links) != 28 {
				t.Fatalf("frame %d: %d link rows (%v), want 28", frames, len(f.Links), err)
			}
			for _, l := range f.Links {
				if !slices.Contains(gate.VerdictNames[:], l.Verdict) {
					t.Fatalf("frame %d: verdict %q is not a gate verdict", frames, l.Verdict)
				}
			}
		}
		if frames != 8 {
			t.Errorf("%d frames exported, want 8", frames)
		}
	}
}

// checkHist: the archive rebuilt from the log and the run's own -hist-out
// archive partition the history: the run's registry series are only in
// its archive, the per-link wan_link_* series only in the rebuild, which
// steps on the run table's 6 h rounds.
func checkHist(rec, out string) func(t *testing.T, stdout string) {
	return func(t *testing.T, stdout string) {
		read := func(path string) *hist.Archive {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			a, err := hist.ReadArchive(f)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		live, rebuilt := read(filepath.Join(rec, "h.hist")), read(filepath.Join(out, "rebuilt.hist"))
		if !strings.Contains(readFile(filepath.Join(out, "rebuilt.jsonl")), "wan_link_snr_db") {
			t.Error("rebuilt JSONL holds no wan_link_snr_db series")
		}
		onlyLive, onlyRebuilt := 0, 0
		for _, d := range hist.Diff(live, rebuilt) {
			link := strings.HasPrefix(d.Key, "wan_link_")
			switch {
			case d.InA && !d.InB && !link:
				onlyLive++
			case d.InB && !d.InA && link:
				onlyRebuilt++
			default:
				t.Errorf("%s: in the run's archive %v, in the rebuild %v", d.Key, d.InA, d.InB)
			}
		}
		for _, s := range rebuilt.Series {
			for i := 1; i < len(s.Samples); i++ {
				if step := s.Samples[i].T - s.Samples[i-1].T; step != 6*time.Hour {
					t.Fatalf("%s: samples %d→%d step %v, want 6h", s.Key(), i-1, i, step)
				}
			}
		}
		if onlyLive != len(live.Series) || onlyRebuilt != len(rebuilt.Series) || onlyRebuilt == 0 {
			t.Errorf("%d of the run's %d series and %d of the rebuild's %d are on their side only",
				onlyLive, len(live.Series), onlyRebuilt, len(rebuilt.Series))
		}
		if !strings.HasSuffix(stdout, " series rebuilt from 8 frames\n") {
			t.Errorf("hist output: %q", stdout)
		}
	}
}

// experimentsLog is a flight log shaped like an experiments figure's:
// one named run of two policies, whose run table holds its 6 h round
// interval.
func experimentsLog(t *testing.T) string {
	t.Helper()
	rec := flight.New()
	links := []flight.Link{{Edge: 0, Name: "SEA->DEN", Fiber: 0}, {Edge: 1, Name: "DEN->SEA", Fiber: 0}}
	if err := rec.Bind("throughput-gains", links, nil, []string{"steady"}, 0, 6*time.Hour); err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"dynamic", "static"} {
		for round := range 4 {
			frame := flight.RoundRecord{Run: "throughput-gains", Policy: policy, Round: round}
			for i := range links {
				frame.Links = append(frame.Links, flight.LinkRecord{LinkIndex: i, SNRdB: 14 + float64(round), CapacityGbps: 100})
			}
			if err := rec.Record(frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "x.flight")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := rec.WriteLog(f, flight.Meta{Tool: "rwc-experiments", Seed: 1}, nil); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestHistRebuildsExperimentsLog: hist reads each run's interval from
// the run table, so a named run's log rebuilds its per-link history on
// that run's 6 h rounds.
func TestHistRebuildsExperimentsLog(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.hist")
	var stderr bytes.Buffer
	if code := run([]string{"hist", experimentsLog(t), "-hist-out", out}, io.Discard, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, &stderr)
	}
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
