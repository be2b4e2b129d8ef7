package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/flight"
	"repro/internal/obs/hist"
)

// result is one in-process run: its exit status, output, and every file
// it left in its directory, by path relative to it.
type result struct {
	code           int
	stdout, stderr string
	files          map[string][]byte
}

// runIn runs one command line in-process in a fresh directory, which
// every -*-out and -*-dir value is taken relative to. The directory's
// path reads "." in every file: a manifest records the paths it was
// given.
func runIn(t *testing.T, args ...string) result {
	t.Helper()
	dir := t.TempDir()
	args = slices.Clone(args)
	for i := 1; i < len(args); i++ {
		if strings.HasSuffix(args[i-1], "-out") || strings.HasSuffix(args[i-1], "-dir") {
			args[i] = filepath.Join(dir, args[i])
		}
	}
	var stdout, stderr bytes.Buffer
	r := result{code: run(args, &stdout, &stderr), files: map[string][]byte{}}
	r.stdout, r.stderr = stdout.String(), stderr.String()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		r.files[path[len(dir)+1:]] = bytes.ReplaceAll(data, []byte(dir), []byte("."))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// assertSame fails unless a and b exited 0 with the same stdout and
// the same bytes in every file either left, but for skip.
func assertSame(t *testing.T, what string, a, b result, skip ...string) {
	t.Helper()
	for _, r := range []result{a, b} {
		if r.code != 0 {
			t.Fatalf("%s: exit %d: %s", what, r.code, r.stderr)
		}
	}
	if a.stdout != b.stdout {
		t.Errorf("%s: stdout differs:\n%s\n---\n%s", what, a.stdout, b.stdout)
	}
	for _, r := range []result{a, b} {
		for name := range r.files {
			if !slices.Contains(skip, name) && !bytes.Equal(a.files[name], b.files[name]) {
				t.Errorf("%s: %s differs or is missing", what, name)
			}
		}
	}
}

// base is what a plain run writes; planes adds every other plane. No
// row profiles: the rows run in parallel, and a process has one CPU
// profile.
var (
	base   = []string{"-metrics-out", "m.prom", "-trace-out", "t.jsonl"}
	planes = append(slices.Clip(base), "-manifest-out", "run.json", "-hist-out", "h.hist",
		"-flight-out", "f.flight", "-perf-out", "perf.json")
)

// TestCLI runs each command line with every plane on at -workers 1 and
// 4: stdout and every artifact but the perf one must agree (the
// manifest but for its -workers value). A plain row also runs with the
// plain run's planes only, which the other planes must not perturb; a
// golden row's stdout must equal testdata/<name>.out; check holds a row
// to what its output must say. A row with a nonzero code is a usage
// error: it must exit so before writing anything, stdout and the
// profile directory included. -short keeps every row: the slowest is
// -quick.
func TestCLI(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		golden bool
		plain  bool
		check  func(t *testing.T, w1 result)
		code   int
	}{
		{name: "safeguards", args: []string{"-figure", "safeguards"}, golden: true, plain: true},
		{name: "abstraction", args: []string{"-figure", "fig7,fig8,theorem1"}, golden: true, plain: true},
		{name: "quick", args: []string{"-quick"}, check: checkQuick},
		// The one figure -flight-out records.
		{name: "throughput", args: []string{"-quick", "-figure", "throughput"}, plain: true},
		{name: "seed-7", args: []string{"-quick", "-figure", "fig2a,fig7", "-seed", "7"}, check: func(t *testing.T, w1 result) {
			if runIn(t, "-quick", "-figure", "fig2a,fig7").stdout == w1.stdout {
				t.Error("-seed 7 did not change the figures")
			}
		}},
		{name: "csv", args: []string{"-quick", "-figure", "fig2a", "-format", "csv"}, check: func(t *testing.T, w1 result) {
			rows, err := csv.NewReader(strings.NewReader(w1.stdout)).ReadAll()
			if err != nil || len(rows) < 2 || !reflect.DeepEqual(rows[0], []string{"dB", "CDF range", "CDF HDR"}) {
				t.Errorf("-format csv: %v, %q", err, w1.stdout)
			}
		}},
		{name: "md", args: []string{"-quick", "-figure", "fig2a", "-format", "md"}, check: func(t *testing.T, w1 result) {
			if !strings.Contains(w1.stdout, "\n| --- | --- | --- |\n") {
				t.Errorf("-format md renders no table:\n%s", w1.stdout)
			}
		}},
		{name: "unknown-figure", args: []string{"-figure", "bogus"}, code: 2},
		{name: "unknown-format", args: []string{"-format", "xml"}, code: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if tc.code != 0 {
				r := runIn(t, append(tc.args, "-perf-out", "p.json", "-perf-profile-dir", "prof")...)
				if r.code != tc.code || r.stdout != "" || len(r.files) != 0 || !strings.HasPrefix(r.stderr, "rwc-experiments: ") {
					t.Errorf("exit %d, stdout %q, files %v, stderr %q; want exit %d and nothing written", r.code, r.stdout, r.files, r.stderr, tc.code)
				}
				return
			}
			w1 := runIn(t, slices.Concat([]string{"-workers", "1"}, tc.args, planes)...)
			w4 := runIn(t, slices.Concat([]string{"-workers", "4"}, tc.args, planes)...)
			w4.files["run.json"] = bytes.Replace(w4.files["run.json"], []byte(`"workers": "4"`), []byte(`"workers": "1"`), 1)
			assertSame(t, "-workers 1 vs 4", w1, w4, "perf.json")
			if tc.plain {
				plain := runIn(t, slices.Concat([]string{"-workers", "4"}, tc.args, base)...)
				assertSame(t, "plain vs every plane", w1, plain, "perf.json", "run.json", "h.hist", "f.flight")
			}
			// A manifest records what the run was and nothing it ended with.
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(w1.files["run.json"], &keys); err != nil ||
				len(keys) != 4 || keys["tool"] == nil || keys["go_version"] == nil || keys["seed"] == nil || keys["options"] == nil {
				t.Errorf("manifest keys are not exactly tool, go_version, seed and options (%v):\n%s", err, w1.files["run.json"])
			}
			if tc.golden {
				golden := filepath.Join("testdata", tc.name+".out")
				if want, err := os.ReadFile(golden); err != nil || w1.stdout != string(want) {
					t.Errorf("stdout differs from %s (%v):\n%s", golden, err, w1.stdout)
				}
			}
			if tc.check != nil {
				tc.check(t, w1)
			}
		})
	}
}

// checkQuick reads the -quick run's flight log the way rwc-replay's
// three subcommands do. replay: the frame hashes verify and the trailer
// holds the run's metrics and trace bytes. hist: the per-link series
// rebuilt from the log step on the throughput run's 6 h rounds, and
// they partition the history with the run's archive — registry series
// only there, wan_link_* series only in the rebuild. explain: the log's
// one run is explained although it is named.
func checkQuick(t *testing.T, w1 result) {
	log, err := flight.ReadLog(bytes.NewReader(w1.files["f.flight"]))
	if err == nil {
		err = log.VerifyHashes()
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(log.Trailer.Metrics, w1.files["m.prom"]) || !bytes.Equal(log.Trailer.Trace, w1.files["t.jsonl"]) {
		t.Error("the flight trailer does not hold the run's metrics and trace")
	}

	live, err := hist.ReadArchive(bytes.NewReader(w1.files["h.hist"]))
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := log.History().Archive()
	links := 0
	for _, s := range rebuilt.Series {
		if strings.HasPrefix(s.Name, "wan_link_") {
			links++
		}
		for i := 1; i < len(s.Samples); i++ {
			if step := s.Samples[i].T - s.Samples[i-1].T; step != 6*time.Hour {
				t.Fatalf("%s: samples %d→%d step %v, want 6h", s.Key(), i-1, i, step)
			}
		}
	}
	onlyLive := 0
	for _, d := range hist.Diff(live, rebuilt) {
		link := strings.HasPrefix(d.Key, "wan_link_")
		if d.InA && (d.InB || link) || d.InB && !link {
			t.Errorf("%s: in the run's archive %v, in the rebuild %v", d.Key, d.InA, d.InB)
		}
		if d.InA {
			onlyLive++
		}
	}
	if links == 0 || links != len(rebuilt.Series) || onlyLive != len(live.Series) {
		t.Errorf("rebuild holds %d wan_link_* of %d series; %d of the run's %d series are only in its archive",
			links, len(rebuilt.Series), onlyLive, len(live.Series))
	}

	e, err := log.Explain(2, "0")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Format(); !strings.Contains(got, "· run throughput-gains · policy dynamic · round 2") ||
		!strings.Contains(got, "6. applied capacity") {
		t.Errorf("explain output:\n%s", got)
	}
}
