package daemon

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/obs/flight"
	"repro/internal/obs/hist"
	"repro/internal/obs/serve"
	"repro/internal/obs/sli"
	"repro/internal/wan"
)

// testParams is a small, fast config shared by the lifecycle tests.
func testParams(t *testing.T) Params {
	t.Helper()
	return resolved(t, func(p *Params) { p.Topology, p.Rounds, p.Seed = "random:8", 5, 11 })
}

// resolved is DefaultParams with set applied, Resolved.
func resolved(t *testing.T, set func(*Params)) Params {
	t.Helper()
	p := DefaultParams()
	set(&p)
	p, _, err := p.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// syncBuffer lets the test read stdout while the daemon is writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// artifactNames are the five deterministic artifacts every identity
// test compares.
var artifactNames = []string{"m.prom", "t.jsonl", "run.json", "h.hist", "f.flight"}

// planeIn is a Plane writing those five artifacts into dir.
func planeIn(dir string) Plane {
	return Plane{
		Artifacts: Artifacts{
			MetricsOut:  filepath.Join(dir, "m.prom"),
			TraceOut:    filepath.Join(dir, "t.jsonl"),
			ManifestOut: filepath.Join(dir, "run.json"),
			HistOut:     filepath.Join(dir, "h.hist"),
			FlightOut:   filepath.Join(dir, "f.flight"),
		},
	}
}

// served is p listening on a loopback port, so the run gets its
// server's SLI layer.
func served(p Plane) Plane {
	p.Serve = "127.0.0.1:0"
	return p
}

func readArtifact(t *testing.T, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runOneShot is the independent reference every byte-identity test
// compares against: the simulation driven straight through the wan
// package — no daemon, no gate, no hooks, no SLI layer — over
// subsystems wired by hand the way rwc-wansim wired them before it ran
// through this package, writing the five artifacts into dir. It
// deliberately shares nothing with Plane.Build or reconcile.
func runOneShot(t *testing.T, p Params, dir string) string {
	t.Helper()
	o := obs.New()
	recorder := flight.New()
	store := hist.New(hist.Options{Retain: hist.DefaultRetain, Tool: "rwc-wansim", Seed: p.Seed})
	o.Metrics.SetHistory(store.Root().Bind(o.Clock))
	arts := planeIn(dir).Artifacts
	arts.FlightMeta = flight.Meta{Tool: "rwc-wansim", Seed: p.Seed}
	arts.Manifest = &obs.Manifest{Tool: "rwc-wansim", GoVersion: runtime.Version(), Seed: p.Seed}

	policies, err := p.Policies()
	if err != nil {
		t.Fatal(err)
	}
	net, err := p.Network()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := p.SimConfig(net)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = o
	cfg.Flight = recorder
	cfg.Alerts = alert.DefaultWANRules()
	sim, err := wan.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.OverrideSNR != "" {
		var f, w, r int
		var db float64
		if _, err := fmt.Sscanf(p.OverrideSNR, "%d,%d,%d,%g", &f, &w, &r, &db); err != nil {
			t.Fatal(err)
		}
		if err := sim.OverrideSNR(f, w, r, db); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	printRunHeader(&out, p, net)
	results, err := sim.RunPolicies(policies)
	if err != nil {
		t.Fatal(err)
	}
	printResults(&out, policies, results)
	if err := arts.Flush(o, store, recorder, nil); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// assertSameRun fails unless stdout and the five artifacts in gotDir
// equal the reference's.
func assertSameRun(t *testing.T, what, wantOut, wantDir, gotOut, gotDir string) {
	t.Helper()
	if gotOut != wantOut {
		t.Errorf("%s: stdout differs from the direct-wan reference:\n--- reference ---\n%s\n--- got ---\n%s", what, wantOut, gotOut)
	}
	for _, name := range artifactNames {
		if !bytes.Equal(readArtifact(t, wantDir, name), readArtifact(t, gotDir, name)) {
			t.Errorf("%s: artifact %s differs from the direct-wan reference", what, name)
		}
	}
}

// TestDaemonPacedRunMatchesOneShot is the tentpole acceptance: a
// daemon run with a fixed round budget — even a *paced* one, rounds
// released on a ticker with the full SLI plane active — produces
// stdout, metrics, trace, hist, and flight artifacts byte-identical
// to the equivalent one-shot rwc-wansim run. Service accounting must
// exist only on the SLI layer's own registry.
func TestDaemonPacedRunMatchesOneShot(t *testing.T) {
	p := testParams(t)
	oneDir, dDir := t.TempDir(), t.TempDir()
	oneOut := runOneShot(t, p, oneDir)

	var out syncBuffer
	d := New(Options{
		Params: p, Tick: time.Millisecond, Plane: served(planeIn(dDir)),
		Stdout: &out,
	})
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, "paced daemon", oneOut, oneDir, out.String(), dDir)
	layer := d.bundle.Server.SLI()

	// The run registry must carry zero rwc_sli_* series, and the SLI
	// registry must have seen every round.
	for key := range d.bundle.Obs.Metrics.Totals() {
		if strings.HasPrefix(key, sli.Prefix) {
			t.Errorf("service series %s leaked into the run registry (artifact surface)", key)
		}
	}
	var rounds float64
	for key, v := range layer.Registry().Totals() {
		if strings.HasPrefix(key, sli.MetricRoundsTotal) {
			rounds += v
		}
	}
	policies, _ := p.Policies()
	if want := float64(p.Rounds * len(policies)); rounds != want {
		t.Errorf("SLI rounds_total = %v, want %v", rounds, want)
	}
}

// TestOneShotRunMatchesDirectWan: rwc-wansim is this package with the
// option values below — no tick, no SLI layer, no config file, no tail,
// no signals — and that run writes the stdout and artifacts of the
// simulation driven directly through the wan package, for every policy
// on Abilene and for a fault-injected (-override-snr) run.
func TestOneShotRunMatchesDirectWan(t *testing.T) {
	all := resolved(t, func(p *Params) { p.Rounds = 6 })
	dip := resolved(t, func(p *Params) { p.Rounds, p.Policy, p.OverrideSNR = 8, "dynamic", "0,0,4,-5" })
	plain := dip
	plain.OverrideSNR = ""
	run := func(p Params) (string, string) {
		dir := t.TempDir()
		var out bytes.Buffer
		d := New(Options{Tool: "rwc-wansim", Params: p, Plane: planeIn(dir), Stdout: &out})
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		return out.String(), dir
	}
	for _, tc := range []struct {
		name string
		p    Params
	}{{"policy all on abilene", all}, {"override-snr", dip}} {
		wantDir := t.TempDir()
		wantOut := runOneShot(t, tc.p, wantDir)
		gotOut, gotDir := run(tc.p)
		assertSameRun(t, tc.name, wantOut, wantDir, gotOut, gotDir)
	}
	// The override reached the simulation: the pinned cell changes the
	// flight log of the otherwise identical run.
	_, dipDir := run(dip)
	_, plainDir := run(plain)
	if bytes.Equal(readArtifact(t, dipDir, "f.flight"), readArtifact(t, plainDir, "f.flight")) {
		t.Error("override-snr run wrote the flight log of the plain run: the override was not applied")
	}
}

// TestSignalMidRunDrainsAndFlushes: a SIGTERM landing mid-run stops
// intake at the round boundary, drains what is in flight, and still
// flushes complete, parseable artifacts — never a truncated
// RWCFLT3/RWCHIST1.
func TestSignalMidRunDrainsAndFlushes(t *testing.T) {
	p := resolved(t, func(p *Params) { p.Topology, p.Rounds, p.Seed = "random:8", 400, 3 })
	dir := t.TempDir()
	sigs := make(chan os.Signal, 1)
	var out syncBuffer
	d := New(Options{
		Params: p, Tick: 2 * time.Millisecond, Plane: served(planeIn(dir)),
		Stdout: &out, Signals: sigs, Tail: true,
	})
	done := make(chan error, 1)
	go func() { done <- d.Run() }()

	waitFor(t, func() bool { return d.latest.Load().round >= 0 }, "first completed round")
	sigs <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down after SIGTERM")
	}

	if completed := d.latest.Load().round + 1; completed >= p.Rounds {
		t.Fatalf("signal did not stop the run early (completed %d of %d rounds)", completed, p.Rounds)
	}
	// The drained rounds were still printed, summary included.
	if !strings.Contains(out.String(), "summary:") {
		t.Fatalf("stdout missing the per-policy summary; drain did not complete:\n%s", out.String())
	}
	// Both binary artifacts parse end to end — the truncation check.
	ff, err := os.Open(filepath.Join(dir, "f.flight"))
	if err != nil {
		t.Fatal(err)
	}
	defer ff.Close()
	if _, err := flight.ReadLog(ff); err != nil {
		t.Fatalf("flight log truncated or corrupt after mid-run SIGTERM: %v", err)
	}
	hf, err := os.Open(filepath.Join(dir, "h.hist"))
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	if _, err := hist.ReadArchive(hf); err != nil {
		t.Fatalf("hist archive truncated or corrupt after mid-run SIGTERM: %v", err)
	}
}

// TestIdenticalReloadIsProvableNoop: reloading a byte-for-byte
// identical config mid-run bumps the generation gauge and counts a
// noop — and provably changes nothing else: the run's stdout and
// artifacts stay byte-identical to a never-reloaded run.
func TestIdenticalReloadIsProvableNoop(t *testing.T) {
	p := testParams(t)
	oneDir, dir := t.TempDir(), t.TempDir()
	oneOut := runOneShot(t, p, oneDir)

	var out syncBuffer
	d := New(Options{
		Params: p, Tick: time.Millisecond, Plane: served(planeIn(dir)),
		Stdout: &out,
	})
	reloaded := make(chan struct{})
	go func() {
		defer close(reloaded)
		waitFor(t, func() bool { return d.latest.Load().round >= 0 }, "first round before reload")
		d.Reload(p)
	}()
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	<-reloaded

	layer := d.bundle.Server.SLI()
	if gen := layer.Generation(); gen != 2 {
		t.Errorf("generation after identical reload = %d, want 2", gen)
	}
	noopKey := sli.MetricReloadsTotal + `{result="` + sli.ReloadNoop + `"}`
	if got := layer.Registry().Totals()[noopKey]; got != 1 {
		t.Errorf("%s = %v, want 1", noopKey, got)
	}
	if n := strings.Count(out.String(), "# topology="); n != 1 {
		t.Errorf("run headers = %d, want 1 (identical reload must not switch generations)", n)
	}
	assertSameRun(t, "identical-config reload", oneOut, oneDir, out.String(), dir)
}

// TestChangedReloadSwitchesGeneration: a genuinely different config
// drains the running generation at a round boundary and starts a new
// one — second run header, success counter, generation 2.
func TestChangedReloadSwitchesGeneration(t *testing.T) {
	p := resolved(t, func(p *Params) { p.Topology, p.Rounds, p.Seed = "random:8", 300, 3 })
	p2 := p
	p2.Seed = 99
	sigs := make(chan os.Signal, 1)
	var out syncBuffer
	d := New(Options{
		Params: p, Tick: 2 * time.Millisecond, Plane: served(planeIn(t.TempDir())),
		Stdout: &out, Signals: sigs,
	})
	done := make(chan error, 1)
	go func() { done <- d.Run() }()

	waitFor(t, func() bool { return d.latest.Load().round >= 0 }, "first round before reload")
	d.Reload(p2)
	waitFor(t, func() bool { return strings.Count(out.String(), "# topology=") == 2 }, "second generation header")
	sigs <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down after SIGTERM")
	}

	layer := d.bundle.Server.SLI()
	if gen := layer.Generation(); gen != 2 {
		t.Errorf("generation after changed reload = %d, want 2", gen)
	}
	successKey := sli.MetricReloadsTotal + `{result="` + sli.ReloadSuccess + `"}`
	if got := layer.Registry().Totals()[successKey]; got != 1 {
		t.Errorf("%s = %v, want 1", successKey, got)
	}
	// The second generation's header reports the new seed.
	if !strings.Contains(out.String(), "seed=99") {
		t.Errorf("second generation header missing the reloaded seed:\n%s", out.String())
	}
}

// TestReloadedLinkHistoryFollowsTheRunClock: a reload starts generation
// 2 where generation 1 stopped. The per-link series rebuilt from the
// flight log must follow the same clock as every run-registry series in
// the live store instead of restarting at t = 0. The live store holds
// no per-link series: they are written once, in the log.
func TestReloadedLinkHistoryFollowsTheRunClock(t *testing.T) {
	p := resolved(t, func(p *Params) { p.Topology, p.Rounds, p.Seed, p.Policy = "random:8", 300, 3, "dynamic" })
	p2 := p
	p2.Seed, p2.Rounds = 4, 4
	dir := t.TempDir()
	d := New(Options{Params: p, Tick: 2 * time.Millisecond, Plane: planeIn(dir), Stdout: io.Discard})
	reloaded := make(chan struct{})
	go func() {
		defer close(reloaded)
		waitFor(t, func() bool { return d.latest.Load().round >= 0 }, "first round before reload")
		d.Reload(p2)
	}()
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	<-reloaded

	f, err := os.Open(filepath.Join(dir, "f.flight"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := flight.ReadLog(f)
	if err != nil {
		t.Fatal(err)
	}
	gen1 := 0 // rounds generation 1 completed before the switch
	for _, fr := range log.Frames {
		if fr.Run == "" {
			gen1++
		}
	}
	stamps := func(st *hist.Store, selector string) []time.Duration {
		t.Helper()
		res, err := st.Query(hist.Query{Selector: selector, ToNs: -1})
		if err != nil || len(res) == 0 {
			t.Fatalf("%s: %d series, err %v", selector, len(res), err)
		}
		var out []time.Duration
		for _, s := range res[0].Samples {
			out = append(out, s.T)
		}
		return out
	}
	runClock := stamps(d.bundle.Hist, `wan_snr_min_db{policy="dynamic"}`)
	if len(runClock) != gen1+p2.Rounds {
		t.Fatalf("wan_snr_min_db has %d samples, want %d + %d", len(runClock), gen1, p2.Rounds)
	}
	want := runClock[gen1:] // generation 2's rounds on the run clock
	got := stamps(log.History(), `wan_link_snr_db{run="gen2"}`)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("generation 2's rebuilt per-link samples at %v, run clock at %v", got, want)
	}
	if len(got) > 1 && got[1]-got[0] != wan.RoundInterval {
		t.Errorf("generation 2's rebuilt per-link step is %v, want %v", got[1]-got[0], wan.RoundInterval)
	}
	for _, s := range d.bundle.Hist.Series() {
		if strings.HasPrefix(s.Name, "wan_link_") {
			t.Fatalf("live store holds %s %v", s.Name, s.Labels)
		}
	}
}

// TestInvalidReloadKeepsLastKnownGood: an unreadable, unparsable, or
// invalid config file counts a failure and leaves the running params
// untouched.
func TestInvalidReloadKeepsLastKnownGood(t *testing.T) {
	p := testParams(t)
	path := filepath.Join(t.TempDir(), "wansimd.json")
	d := New(Options{Params: p, ConfigPath: path, Plane: served(Plane{})})
	layer := serveLedger(t, d)

	bad := []string{
		`{not json`,
		`{"topology":"abilene","typo_field":1}`, // unknown key: strict decode
		`{"topology":"no-such-backbone"}`,       // fails validation
		`{"topology":"abilene","rounds":-4}`,
	}
	for i, body := range bad {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		d.reloadFromFile()
		failKey := sli.MetricReloadsTotal + `{result="` + sli.ReloadFailure + `"}`
		if got := layer.Registry().Totals()[failKey]; got != float64(i+1) {
			t.Fatalf("after bad config %d: %s = %v, want %d", i, failKey, got, i+1)
		}
	}
	if gen := layer.Generation(); gen != 1 {
		t.Errorf("generation after failed reloads = %d, want 1", gen)
	}
	d.paramsMu.Lock()
	defer d.paramsMu.Unlock()
	if d.params != p {
		t.Errorf("failed reloads replaced the running params: %+v", d.params)
	}
	if d.pending != nil {
		t.Errorf("failed reloads left a pending config: %+v", *d.pending)
	}
}

// serveLedger builds and serves d's plane the way Run does, for tests
// that drive reloads without running a generation, and returns the
// server's SLI layer.
func serveLedger(t *testing.T, d *Daemon) *sli.Layer {
	t.Helper()
	d.bundle = d.opts.Plane.Build(artifactTool, d.opts.Params.Seed)
	if err := d.bundle.Serve(serve.Options{Tool: d.opts.Tool, Admit: d.Admit}, io.Discard); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.bundle.Server.Close() })
	return d.bundle.Server.SLI()
}

// TestRevertWhilePendingTargetsRunningConfig: a reload back to the
// running config while a switch is still pending replaces the pending
// target, so a file edited to B and back to A inside one round leaves
// the daemon on A; reloading A again is then a no-op.
func TestRevertWhilePendingTargetsRunningConfig(t *testing.T) {
	a := testParams(t)
	b := a
	b.Seed = 99
	d := New(Options{Params: a, Plane: served(Plane{})})
	layer := serveLedger(t, d)
	d.Reload(b)
	d.Reload(a)
	d.paramsMu.Lock()
	pending := d.pending
	d.paramsMu.Unlock()
	if pending == nil || *pending != a {
		t.Fatalf("after Reload(B), Reload(A) with A running, the pending target is %+v, want A", pending)
	}
	d.Reload(a)
	noopKey := sli.MetricReloadsTotal + `{result="` + sli.ReloadNoop + `"}`
	if got := layer.Registry().Totals()[noopKey]; got != 1 {
		t.Errorf("%s = %v, want 1 (only the repeat of the latest target is a no-op)", noopKey, got)
	}
}

// TestOverflowingReloadKeepsLastKnownGood: a config the simulation
// rejects — rounds × interval overflows its horizon — is rejected when
// the file is loaded, not after the running generation was drained for
// it (which ended the daemon with NewSimulation's error). The reload
// counts a failure and the run finishes its budget with the stdout and
// artifacts of a never-reloaded run.
func TestOverflowingReloadKeepsLastKnownGood(t *testing.T) {
	assertReloadRejected(t, "overflowing-config reload", `{"topology":"abilene","rounds":2000000000000}`)
}

// TestClockOverflowingReloadKeepsLastKnownGood: Resolved checks the
// clock from sim time 0, but the next generation starts where the
// drained one stopped. 427 007 rounds of 6 h fit from 0 and overflow
// from 6 h, so this reload passed admission, drained the running
// generation after its first round and ended the daemon with
// NewSimulation's clock error. Reload now checks the rounds from the
// running generation's start plus its whole budget.
func TestClockOverflowingReloadKeepsLastKnownGood(t *testing.T) {
	assertReloadRejected(t, "clock-overflowing reload", `{"topology":"abilene","rounds":427007}`)
}

// TestNonFiniteOverrideReloadKeepsLastKnownGood: an SNR override of NaN
// or ±Inf used to pass validation, count as a successful reload and
// drain the running generation for a run whose trace cannot be written.
func TestNonFiniteOverrideReloadKeepsLastKnownGood(t *testing.T) {
	assertReloadRejected(t, "non-finite-override reload", `{"override_snr":"0,0,1,-Inf"}`)
}

// TestOversizedRandomReloadKeepsLastKnownGood: random:N had no upper
// bound, so a reload to random:100000 passed Resolved, drained the
// running generation and then ran out of memory building n(n−1) gravity
// demands. random:N now shares continental's 4096-node ceiling.
func TestOversizedRandomReloadKeepsLastKnownGood(t *testing.T) {
	assertReloadRejected(t, "oversized-random reload", `{"topology":"random:4097"}`)
}

// TestOversizedSNRReloadKeepsLastKnownGood: Resolved checked only that
// a fiber had a wavelength and that the clock fit, so a reload to ten
// million Abilene wavelengths, or to 427 000 rounds of continental:4096
// at 8 wavelengths (2.1×10¹⁰ kept SNR samples), drained the running
// generation and then exhausted memory pre-generating SNR.
func TestOversizedSNRReloadKeepsLastKnownGood(t *testing.T) {
	assertReloadRejected(t, "too-many-wavelengths reload", `{"wavelengths":10000000}`)
	assertReloadRejected(t, "too-many-samples reload", `{"topology":"continental:4096","wavelengths":8,"rounds":427000}`)
}

// assertReloadRejected reloads the config body into a running daemon
// and holds it to one counted failure and the stdout and artifacts of a
// never-reloaded run.
func assertReloadRejected(t *testing.T, label, body string) {
	t.Helper()
	p := testParams(t)
	oneDir, dir := t.TempDir(), t.TempDir()
	oneOut := runOneShot(t, p, oneDir)

	path := writeConfig(t, body)
	var out syncBuffer
	d := New(Options{
		Params: p, Tick: 20 * time.Millisecond, Plane: served(planeIn(dir)),
		Stdout: &out, ConfigPath: path,
	})
	reloaded := make(chan struct{})
	go func() {
		defer close(reloaded)
		waitFor(t, func() bool { return d.latest.Load().round >= 0 }, "first round before reload")
		d.reloadFromFile()
	}()
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	<-reloaded

	failKey := sli.MetricReloadsTotal + `{result="` + sli.ReloadFailure + `"}`
	if got := d.bundle.Server.SLI().Registry().Totals()[failKey]; got != 1 {
		t.Errorf("%s = %v, want 1", failKey, got)
	}
	assertSameRun(t, label, oneOut, oneDir, out.String(), dir)
}

// TestTailSharedShutdown: the -linger tail and the daemon tail are one
// implementation — wait for the signal, ticking until it arrives.
func TestTailSharedShutdown(t *testing.T) {
	ch := make(chan os.Signal, 1)
	ch <- syscall.SIGTERM
	Tail(ch, 0, nil)
	if len(ch) != 0 {
		t.Fatal("Tail returned without taking the signal")
	}

	// The ticking variant keeps invoking onTick until the signal.
	var mu sync.Mutex
	ticks := 0
	ch2 := make(chan os.Signal, 1)
	go func() {
		waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return ticks >= 2 }, "tail ticks")
		ch2 <- syscall.SIGTERM
	}()
	Tail(ch2, time.Millisecond, func() {
		mu.Lock()
		ticks++
		mu.Unlock()
	})
	if len(ch2) != 0 {
		t.Fatal("ticking Tail returned without taking the signal")
	}
}

// TestGateSemantics pins the pacing gate's contract: rounds block
// until released, stop wins over release, and the first stop reason
// is sticky.
func TestGateSemantics(t *testing.T) {
	g := newGate(false)
	allowed := make(chan bool, 1)
	go func() { allowed <- g.allow(0) }()
	select {
	case <-allowed:
		t.Fatal("allow(0) returned before the round was released")
	case <-time.After(10 * time.Millisecond):
	}
	g.release()
	if !<-allowed {
		t.Fatal("allow(0) = false after release")
	}
	if g.reason() != StopBudget {
		t.Fatalf("reason before stop = %v, want budget", g.reason())
	}
	g.stop(StopReload)
	g.stop(StopSignal)
	if g.reason() != StopReload {
		t.Fatalf("first stop reason must win; got %v", g.reason())
	}
	if g.allow(1) {
		t.Fatal("allow after stop = true")
	}
	if !newGate(true).allow(1 << 30) {
		t.Fatal("free-run gate must admit every round")
	}
}
