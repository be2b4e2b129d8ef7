package daemon

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/hist"
	"repro/internal/obs/perf"
)

// TestPlaneBuiltOnlyWhenConsumed: the bundle exists iff an artifact
// path or -serve asks for it, so a plain run records nothing.
func TestPlaneBuiltOnlyWhenConsumed(t *testing.T) {
	idle := Plane{}
	b, err := idle.Build("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Obs != nil || b.Flight != nil || b.Hist != nil || b.Perf != nil {
		t.Fatalf("idle plane built subsystems: %+v", b)
	}
	if err := b.Flush(); err != nil {
		t.Fatalf("idle bundle flush: %v", err)
	}
	for name, set := range map[string]func(*Plane){
		"-metrics-out": func(p *Plane) { p.MetricsOut = "m" },
		"-perf-out":    func(p *Plane) { p.PerfOut = "p" },
		"-serve":       func(p *Plane) { p.Serve = "127.0.0.1:0" },
	} {
		p := idle
		set(&p)
		if b, err := p.Build("t", 1); err != nil || b.Obs == nil {
			t.Errorf("%s did not enable the bundle (err %v)", name, err)
		}
	}
	bad := idle
	bad.PerfProfileDir = "d"
	if bad.Validate() == nil {
		t.Error("-perf-profile-dir without -perf-out validated")
	}
}

// oracleExperimentsFlush is the artifact-writing code rwc-experiments
// carried before it flushed through this package, kept verbatim (paths
// passed in, errors returned instead of exiting) but for the manifest,
// which records only what the run was: the tool, toolchain and seed
// (the plane here registers no flags).
func oracleExperimentsFlush(o *obs.Obs, histStore *hist.Store, recorder *flight.Recorder, perfRec *perf.Recorder, seed uint64,
	metricsOut, traceOut, manifestOut, histOut, flightOut, perfOut string) error {
	var firstErr error
	write := func(path string, f func(*os.File) error) {
		out, err := os.Create(path)
		if err != nil {
			firstErr = err
			return
		}
		err = f(out)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if metricsOut != "" {
		write(metricsOut, func(f *os.File) error { return o.Metrics.WritePrometheus(f) })
	}
	if traceOut != "" {
		write(traceOut, func(f *os.File) error { return o.Trace.WriteJSONL(f) })
	}
	if manifestOut != "" {
		man := &obs.Manifest{Tool: "rwc-experiments", GoVersion: runtime.Version(), Seed: seed}
		write(manifestOut, func(f *os.File) error { return man.WriteJSON(f) })
	}
	if histStore != nil {
		write(histOut, func(f *os.File) error { return histStore.Archive().WriteBinary(f) })
	}
	// Written last so the trailer embeds the final artifact state.
	if recorder != nil {
		write(flightOut, func(f *os.File) error {
			return recorder.WriteLog(f, flight.Meta{Tool: "rwc-experiments", Seed: seed}, o)
		})
	}
	if perfRec != nil {
		if err := perfRec.StopProfiles(); err != nil {
			return err
		}
		write(perfOut, func(f *os.File) error {
			return perfRec.WriteJSON(f, perf.FilterWork(o.Metrics.Totals()))
		})
	}
	return firstErr
}

// TestExperimentsArtifactsMatchOracle: the throughput figure recorded
// into a Plane-built bundle and written by Bundle.Flush leaves the bytes
// rwc-experiments' own wiring and flush left — every -*-out set, the
// wall-clock perf artifact excepted. The hand wiring feeds the flight
// recorder's per-link gauges into the history store, as rwc-wansim's
// does: each run is stamped on its own run table's axis.
func TestExperimentsArtifactsMatchOracle(t *testing.T) {
	opts := experiments.QuickOptions()
	names := []string{"m.prom", "t.jsonl", "run.json", "h.hist", "f.flight", "perf.json"}
	paths := func(dir string) (out []string) {
		for _, n := range names {
			out = append(out, filepath.Join(dir, n))
		}
		return out
	}
	// runFigure is the per-figure body of rwc-experiments' fan-out.
	runFigure := func(o *obs.Obs, rec *flight.Recorder, perfRec *perf.Recorder) {
		fopts := opts
		fopts.Obs, fopts.Flight = o.Child(), rec
		end := perfRec.Phase("experiments.figure/throughput")
		_, err := experiments.ThroughputGains(fopts)
		end()
		if err != nil {
			t.Fatal(err)
		}
		o.Merge(fopts.Obs)
	}

	// The parent's wiring, by hand.
	wantDir := t.TempDir()
	w := paths(wantDir)
	o := obs.New()
	rec := flight.New()
	store := hist.New(hist.Options{Retain: hist.DefaultRetain, Tool: "rwc-experiments", Seed: opts.Seed})
	o.Metrics.SetHistory(store.Root().Bind(o.Clock))
	rec.SetHistory(store.Root().NewChild())
	perfRec := perf.New("rwc-experiments")
	runFigure(o, rec, perfRec)
	if err := oracleExperimentsFlush(o, store, rec, perfRec, opts.Seed, w[0], w[1], w[2], w[3], w[4], w[5]); err != nil {
		t.Fatal(err)
	}

	// The shared plane.
	gotDir := t.TempDir()
	g := paths(gotDir)
	plane := Plane{
		Artifacts: Artifacts{MetricsOut: g[0], TraceOut: g[1], ManifestOut: g[2], HistOut: g[3], FlightOut: g[4], PerfOut: g[5]},
	}
	b, err := plane.Build("rwc-experiments", opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	runFigure(b.Obs, b.Flight, b.Perf)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, name := range names[:5] {
		if !bytes.Equal(readArtifact(t, wantDir, name), readArtifact(t, gotDir, name)) {
			t.Errorf("%s written through Bundle.Flush differs from rwc-experiments' own flush", name)
		}
	}
	if len(readArtifact(t, gotDir, "perf.json")) == 0 {
		t.Error("perf.json not written")
	}
}
