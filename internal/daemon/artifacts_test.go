package daemon

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// outFlags are the six -*-out flags and the file name runFlags gives
// each: the five deterministic artifacts (artifactNames) plus the
// wall-clock perf artifact.
var outFlags = []struct{ flag, file string }{
	{"metrics-out", "m.prom"}, {"trace-out", "t.jsonl"}, {"manifest-out", "run.json"},
	{"hist-out", "h.hist"}, {"flight-out", "f.flight"}, {"perf-out", "perf.json"},
}

// runFlags is rwc-wansim given args plus all six -*-out flags pointing
// into dir (set overrides individual paths): the flags are parsed, so
// the manifest records every option the way the binary does.
func runFlags(t *testing.T, dir string, set map[string]string, args ...string) (string, error) {
	t.Helper()
	opts := Options{Tool: "rwc-wansim", Params: DefaultParams()}
	fs := flag.NewFlagSet("rwc-wansim", flag.ContinueOnError)
	opts.RegisterFlags(fs)
	for _, o := range outFlags {
		path, ok := set[o.flag]
		if !ok {
			path = filepath.Join(dir, o.file)
		}
		args = append(args, "-"+o.flag, path)
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	var err error
	if opts.Params, err = opts.Params.Resolved(); err != nil {
		t.Fatal(err)
	}
	if err := opts.Plane.Validate(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	opts.Stdout = &out
	return out.String(), New(opts).Run()
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
				if _, err := runFlags(t, dir, nil, args...); err != nil {
					t.Fatal(err)
				}
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
// fails the run without costing it the other five, and the CPU profile
// still stops.
func TestFlushAttemptsEveryArtifact(t *testing.T) {
	args := []string{"-rounds", "5"}
	cleanDir := t.TempDir()
	if _, err := runFlags(t, cleanDir, nil, args...); err != nil {
		t.Fatal(err)
	}
	dir, profDir := t.TempDir(), t.TempDir()
	bad := filepath.Join(dir, "no-such-dir", "m.prom")
	// Same recorded options as the clean run but for the paths.
	_, err := runFlags(t, dir, map[string]string{"metrics-out": bad}, append(args, "-perf-profile-dir", profDir)...)
	if err == nil || !strings.Contains(err.Error(), "no-such-dir") {
		t.Fatalf("run with an unwritable -metrics-out returned %v, want an error naming the path", err)
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
			want = bytes.Replace(want, []byte(`"perf-profile-dir": ""`), []byte(`"perf-profile-dir": "`+profDir+`"`), 1)
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from the clean run's beyond its recorded paths", name)
			}
		default:
			if !bytes.Equal(got, readArtifact(t, cleanDir, name)) {
				t.Errorf("%s differs from the clean run's", name)
			}
		}
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof"} {
		if fi, err := os.Stat(filepath.Join(profDir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty after the failed flush: the profiles never stopped (%v)", name, err)
		}
	}
}
