package main

import (
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/daemon"
)

// wansim and wansimd are the two binaries' mains.
func wansim(args []string, stdout, stderr io.Writer) int {
	return daemon.Main("rwc-wansim", args, stdout, stderr)
}

func wansimd(args []string, stdout, stderr io.Writer) int {
	return daemon.Main("rwc-wansimd", args, stdout, stderr)
}

// result is one in-process run: its exit status, output, and every file
// it left in its directory, by path relative to it.
type result struct {
	code           int
	stdout, stderr string
	files          map[string][]byte
}

// runIn runs one command line in-process in a fresh directory, which
// every -*-out value is taken relative to. The directory's
// path reads "." in every file: a manifest records the paths it was
// given.
func runIn(t *testing.T, run func([]string, io.Writer, io.Writer) int, args ...string) result {
	t.Helper()
	dir := t.TempDir()
	args = slices.Clone(args)
	for i := 1; i < len(args); i++ {
		if strings.HasSuffix(args[i-1], "-out") {
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

// base is what a plain run writes (base[:4] is all of it but
// -hist-out); planes adds every other plane. perf.json is the one file
// that holds wall-clock readings.
var (
	base   = []string{"-metrics-out", "m.prom", "-trace-out", "t.jsonl", "-hist-out", "h.hist"}
	planes = append(slices.Clip(base), "-manifest-out", "run.json", "-flight-out", "f.flight",
		"-perf-out", "perf.json")
)

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

// TestCLI runs each command line with every plane on at -workers 1 and
// 4, with the plain run's planes only, with those but -hist-out, and as
// rwc-wansimd -tick 0 -tail=false. Every artifact but the wall-clock
// ones must agree between the worker counts (the manifest but for its
// -workers value), the other planes must not perturb the plain run's,
// -hist-out must not perturb its metrics and trace (the dip rows fire
// capacity_below_slo), and the daemon must write the one-shot run's
// stdout and artifacts (its manifest records two more flags). The
// -seed 0 row must run seed 0, which rwc-wansimd once read as unset.
// internal/daemon's TestCLIGoldens holds all four golden lines to
// testdata; the continental row runs only without -short.
func TestCLI(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		long bool
	}{
		{"abilene", []string{"-rounds", "8"}, false},
		{"seed-0", []string{"-rounds", "4", "-seed", "0"}, false},
		{"override-dip", []string{"-rounds", "6", "-policy", "dynamic", "-override-snr", "0,0,1,5"}, false},
		{"continental-greedy", []string{"-topology", "continental:200", "-wavelengths", "8", "-lengthaware", "-rounds", "6"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("continental:200 in -short mode")
			}
			w1 := runIn(t, wansim, slices.Concat([]string{"-workers", "1"}, tc.args, planes)...)
			w4 := runIn(t, wansim, slices.Concat([]string{"-workers", "4"}, tc.args, planes)...)
			plain := runIn(t, wansim, slices.Concat([]string{"-workers", "4"}, tc.args, base)...)
			noHist := runIn(t, wansim, slices.Concat([]string{"-workers", "4"}, tc.args, base[:4])...)
			service := runIn(t, wansimd, slices.Concat([]string{"-workers", "1", "-tick", "0", "-tail=false"}, tc.args, planes)...)
			assertSame(t, "plain vs every plane", w1, plain, "perf.json", "run.json", "f.flight")
			assertSame(t, "with vs without -hist-out", plain, noHist, "h.hist")
			assertSame(t, "rwc-wansim vs rwc-wansimd", w1, service, "perf.json", "run.json")

			manifest := w4.files["run.json"]
			if !bytes.Contains(manifest, []byte(`"workers": "4"`)) {
				t.Errorf("manifest does not record -workers 4:\n%s", manifest)
			}
			w4.files["run.json"] = bytes.Replace(manifest, []byte(`"workers": "4"`), []byte(`"workers": "1"`), 1)
			assertSame(t, "-workers 1 vs 4", w1, w4, "perf.json")
			// The perf artifacts' rwc_work_* copies agree; only wall time differs.
			var perf [2]struct{ Work map[string]float64 }
			for i, r := range []result{w1, w4} {
				if err := json.Unmarshal(r.files["perf.json"], &perf[i]); err != nil || len(perf[i].Work) == 0 {
					t.Errorf("perf.json holds no work (%v)", err)
				}
			}
			if !reflect.DeepEqual(perf[0].Work, perf[1].Work) {
				t.Error("perf.json's work differs between -workers 1 and 4")
			}
			// A manifest records what the run was and nothing it ended with.
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(manifest, &keys); err != nil ||
				len(keys) != 4 || keys["tool"] == nil || keys["go_version"] == nil || keys["seed"] == nil || keys["options"] == nil {
				t.Errorf("manifest keys are not exactly tool, go_version, seed and options (%v):\n%s", err, manifest)
			}
			if tc.name == "seed-0" && !strings.Contains(w1.stdout, " seed=0\n") {
				t.Errorf("-seed 0 did not run seed 0:\n%s", w1.stdout)
			}
		})
	}
}
