package main

import (
	"bytes"
	"encoding/csv"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// result is one in-process run: its exit status, output, and every file
// it left in its directory, by path relative to it.
type result struct {
	code           int
	stdout, stderr string
	files          map[string][]byte
}

// runIn runs one command line in-process in a fresh directory, which
// every -*-out value is taken relative to, and collects what the run
// left there.
func runIn(t *testing.T, args ...string) result {
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
		r.files[path[len(dir)+1:]] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCLI runs each command line at -workers 1 and 4: both must exit 0
// with the same stdout. A golden row's stdout must equal
// testdata/<name>.out; check holds a row to what its output must say.
// A row with a nonzero code is a usage error: it must exit so before
// printing or writing anything, with stderr naming the fault. The
// observability flags rwc-wansim records WAN runs with are not the
// harness's: each is a usage error here. -short keeps every row: the
// slowest is -quick.
func TestCLI(t *testing.T) {
	type row struct {
		name   string
		args   []string
		golden bool
		check  func(t *testing.T, w1 result)
		code   int
		stderr string
	}
	rows := []row{
		{name: "safeguards", args: []string{"-figure", "safeguards"}, golden: true},
		{name: "abstraction", args: []string{"-figure", "fig7,fig8,theorem1"}, golden: true},
		{name: "quick", args: []string{"-quick"}, check: func(t *testing.T, w1 result) {
			if n := strings.Count(w1.stdout, "\n== "); n != 16 {
				t.Errorf("-quick printed %d tables, want all 16:\n%s", n, w1.stdout)
			}
		}},
		{name: "throughput", args: []string{"-quick", "-figure", "throughput"}},
		// all is a name like any other: in a list it stands for every
		// figure but fig1series, where it appears.
		{name: "all-in-list", args: []string{"-quick", "-figure", "fig7,all"}, check: func(t *testing.T, w1 result) {
			fig7, all := runIn(t, "-quick", "-figure", "fig7"), runIn(t, "-quick")
			header := all.stdout[:strings.Index(all.stdout, "\n\n")+2]
			if want := fig7.stdout + strings.TrimPrefix(all.stdout, header); w1.stdout != want {
				t.Errorf("-figure fig7,all printed\n%s\nwant fig7 then every figure:\n%s", w1.stdout, want)
			}
		}},
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
		{name: "unknown-figure", args: []string{"-figure", "bogus"}, code: 2, stderr: `rwc-experiments: unknown figure "bogus"`},
		{name: "unknown-format", args: []string{"-format", "xml"}, code: 2, stderr: `rwc-experiments: unknown format "xml"`},
	}
	for _, flag := range []string{"metrics-out", "trace-out", "manifest-out", "flight-out", "hist-out", "perf-out", "perf-profile-dir", "serve"} {
		rows = append(rows, row{name: "no-" + flag, args: []string{"-quick", "-" + flag, "x"}, code: 2,
			stderr: "flag provided but not defined: -" + flag})
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if tc.code != 0 {
				r := runIn(t, tc.args...)
				if r.code != tc.code || r.stdout != "" || len(r.files) != 0 || !strings.HasPrefix(r.stderr, tc.stderr) {
					t.Errorf("exit %d, stdout %q, files %v, stderr %q; want exit %d, nothing written and stderr %q",
						r.code, r.stdout, r.files, r.stderr, tc.code, tc.stderr)
				}
				return
			}
			w1 := runIn(t, slices.Concat([]string{"-workers", "1"}, tc.args)...)
			w4 := runIn(t, slices.Concat([]string{"-workers", "4"}, tc.args)...)
			for _, r := range []result{w1, w4} {
				if r.code != 0 {
					t.Fatalf("exit %d: %s", r.code, r.stderr)
				}
			}
			if w1.stdout != w4.stdout {
				t.Errorf("stdout differs between -workers 1 and 4:\n%s\n---\n%s", w1.stdout, w4.stdout)
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
