package daemon

import (
	"bytes"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// outFlags are the six -*-out flags and the file name outArgs gives
// each: the five deterministic artifacts (artifactNames) plus the
// wall-clock perf artifact.
var outFlags = []struct{ flag, file string }{
	{"metrics-out", "m.prom"}, {"trace-out", "t.jsonl"}, {"manifest-out", "run.json"},
	{"hist-out", "h.hist"}, {"flight-out", "f.flight"}, {"perf-out", "perf.json"},
}

// outArgs points all six -*-out flags into dir; set overrides
// individual paths.
func outArgs(dir string, set map[string]string) []string {
	var args []string
	for _, o := range outFlags {
		path, ok := set[o.flag]
		if !ok {
			path = filepath.Join(dir, o.file)
		}
		args = append(args, "-"+o.flag, path)
	}
	return args
}

// runMain is rwc-wansim given args plus all six -*-out flags pointing
// into dir (set overrides individual paths); it returns stdout and
// fails the test unless the run exits 0.
func runMain(t *testing.T, dir string, set map[string]string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := Main("rwc-wansim", slices.Concat(args, outArgs(dir, set)), &stdout, &stderr); code != 0 {
		t.Fatalf("rwc-wansim %v: exit %d: %s", args, code, &stderr)
	}
	return stdout.String()
}

// TestSameFlagRunsAreByteIdentical: nothing a run leaves behind but the
// perf artifact holds a wall-clock reading, so running the same command
// line twice — all planes on, options recorded — rewrites every other
// artifact, the manifest included, byte for byte.
func TestSameFlagRunsAreByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"abilene all policies", []string{"-policy", "all", "-rounds", "12", "-seed", "101"}},
		{"continental:64 dynamic", []string{"-topology", "continental:64", "-wavelengths", "8", "-policy", "dynamic", "-rounds", "4"}},
	} {
		for _, workers := range []string{"1", "4"} {
			dir := t.TempDir()
			args := append([]string{"-workers", workers}, tc.args...)
			var first map[string][]byte
			for run := 0; run < 2; run++ {
				runMain(t, dir, nil, args...)
				got := make(map[string][]byte)
				for _, name := range artifactNames {
					got[name] = readArtifact(t, dir, name)
				}
				if first == nil {
					first = got
					continue
				}
				for _, name := range artifactNames {
					if !bytes.Equal(first[name], got[name]) {
						t.Errorf("%s, -workers %s: %s differs between two runs of the same command line", tc.name, workers, name)
					}
				}
			}
			if !bytes.Contains(first["run.json"], []byte(`"workers": "`+workers+`"`)) {
				t.Errorf("%s: manifest does not record -workers %s", tc.name, workers)
			}
		}
	}
}

// TestFlushAttemptsEveryArtifact: one artifact that cannot be written
// fails the run without costing it the other five.
func TestFlushAttemptsEveryArtifact(t *testing.T) {
	args := []string{"-rounds", "5"}
	cleanDir := t.TempDir()
	var stderr bytes.Buffer
	if code := Main("rwc-wansim", slices.Concat(args, outArgs(cleanDir, nil)), io.Discard, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, &stderr)
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "no-such-dir", "m.prom")
	// Same recorded options as the clean run but for the paths.
	code := Main("rwc-wansim", slices.Concat(args, outArgs(dir, map[string]string{"metrics-out": bad})), io.Discard, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "no-such-dir") {
		t.Fatalf("run with an unwritable -metrics-out exited %d (%s), want 1 and an error naming the path", code, &stderr)
	}
	for _, o := range outFlags[1:] {
		name := o.file
		got := readArtifact(t, dir, name)
		if len(got) == 0 {
			t.Errorf("%s is empty", name)
		}
		switch name {
		case "perf.json":
			// Wall-clock readings: present is all that can be asked.
		case "run.json":
			// The manifests differ in the option values that name dir.
			want := bytes.ReplaceAll(readArtifact(t, cleanDir, name), []byte(cleanDir), []byte(dir))
			want = bytes.Replace(want, []byte(filepath.Join(dir, "m.prom")), []byte(bad), 1)
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from the clean run's beyond its recorded paths", name)
			}
		default:
			if !bytes.Equal(got, readArtifact(t, cleanDir, name)) {
				t.Errorf("%s differs from the clean run's", name)
			}
		}
	}
}

// TestHistoryHoldsRegistrySeriesOnly: a flight log's per-link series are
// written once, in the log, so a run with every plane writes the same
// history archive as the same command line without -flight-out.
func TestHistoryHoldsRegistrySeriesOnly(t *testing.T) {
	for _, workers := range []string{"1", "4"} {
		args := []string{"-workers", workers, "-policy", "all", "-rounds", "12", "-seed", "101"}
		all, noFlight := t.TempDir(), t.TempDir()
		runMain(t, all, nil, args...)
		runMain(t, noFlight, map[string]string{"flight-out": ""}, args...)
		if len(readArtifact(t, all, "f.flight")) == 0 {
			t.Fatalf("-workers %s: no flight log written", workers)
		}
		if !bytes.Equal(readArtifact(t, all, "h.hist"), readArtifact(t, noFlight, "h.hist")) {
			t.Errorf("-workers %s: h.hist differs with -flight-out from the same run without it", workers)
		}
	}
}

// TestCLIGoldens runs the command lines whose output CI pins in
// cmd/rwc-wansim/testdata, with every plane on, at -workers 1 and 4:
// stdout must equal <name>.out, the .prom's rwc_work_* lines
// <name>.work, and every deterministic artifact must agree between the
// worker counts (the manifest but for its paths and -workers value).
// -short keeps the Abilene row.
func TestCLIGoldens(t *testing.T) {
	golden := filepath.Join("..", "..", "cmd", "rwc-wansim", "testdata")
	continental := func(args ...string) []string {
		return append([]string{"-topology", "continental:200", "-wavelengths", "8", "-lengthaware"}, args...)
	}
	for _, tc := range []struct {
		name string
		args []string
		long bool
	}{
		{"abilene", []string{"-rounds", "8"}, false},
		{"continental-greedy", continental("-rounds", "6"), true},
		{"continental-kpath", continental("-te", "kpath", "-rounds", "3"), true},
		{"continental-gk", continental("-te", "maxconcurrent", "-rounds", "3"), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("continental:200 in -short mode")
			}
			wantOut := readArtifact(t, golden, tc.name+".out")
			wantWork := readArtifact(t, golden, tc.name+".work")
			var first map[string][]byte
			for _, workers := range []string{"1", "4"} {
				dir := t.TempDir()
				out := runMain(t, dir, nil, append([]string{"-workers", workers}, tc.args...)...)
				if out != string(wantOut) {
					t.Errorf("-workers %s: stdout differs from %s:\n%s", workers, filepath.Join(golden, tc.name+".out"), out)
				}
				var work strings.Builder
				for _, line := range strings.SplitAfter(string(readArtifact(t, dir, "m.prom")), "\n") {
					if strings.HasPrefix(line, "rwc_work_") {
						work.WriteString(line)
					}
				}
				if work.String() != string(wantWork) {
					t.Errorf("-workers %s: rwc_work_* lines differ from %s:\n%s", workers, filepath.Join(golden, tc.name+".work"), work.String())
				}
				got := make(map[string][]byte)
				for _, name := range artifactNames {
					got[name] = bytes.ReplaceAll(readArtifact(t, dir, name), []byte(dir), []byte("."))
				}
				got["run.json"] = bytes.Replace(got["run.json"], []byte(`"workers": "`+workers+`"`), []byte(`"workers": "1"`), 1)
				if first == nil {
					first = got
					continue
				}
				for _, name := range artifactNames {
					if !bytes.Equal(first[name], got[name]) {
						t.Errorf("%s differs between -workers 1 and 4", name)
					}
				}
			}
		})
	}
}
