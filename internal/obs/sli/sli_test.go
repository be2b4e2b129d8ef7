package sli

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestNilLayerIsDisabled: every method must be a no-op on a nil
// receiver — the daemon and serve layers call unconditionally.
func TestNilLayerIsDisabled(t *testing.T) {
	var l *Layer
	l.Tick(time.Second)
	l.RoundComplete("dynamic", time.Millisecond, 3)
	l.ScrapeObserved(time.Millisecond)
	l.SSESubscribers(2)
	l.SSEDropped(DropShutdown, 5)
	l.Lifecycle("daemon.start", "x")
	l.DemandBatch(4, 100, 50)
	if gen := l.Reload(ReloadSuccess, "x"); gen != 0 {
		t.Fatalf("nil Reload = %d, want 0", gen)
	}
	if l.Generation() != 0 || l.Registry() != nil || l.Hist() != nil {
		t.Fatal("nil accessors must return zero values")
	}
	snap := l.Snapshot()
	if snap.Generation != 0 || snap.Totals != nil {
		t.Fatalf("nil Snapshot = %+v", snap)
	}
}

func TestCatalogPreRegistered(t *testing.T) {
	l := New(Options{Tool: "rwc-wansimd", Seed: 7})
	totals := l.Registry().Totals()
	for _, name := range []string{MetricDecisionsPerSec, MetricGeneration, MetricUptimeRounds, MetricUptimeSeconds, MetricAlertsFiring} {
		if _, ok := totals[name]; !ok {
			t.Errorf("core series %s not pre-registered; a pre-round scrape would miss the catalog", name)
		}
	}
	if totals[MetricGeneration] != 1 {
		t.Errorf("initial %s = %v, want 1", MetricGeneration, totals[MetricGeneration])
	}
}

// TestDecisionsPerSecondRate: the throughput gauge is the decision
// delta over the rate window, computed purely from injected uptime.
func TestDecisionsPerSecondRate(t *testing.T) {
	l := New(Options{Tool: "t"})
	l.Tick(0)
	l.RoundComplete("dynamic", 5*time.Millisecond, 10)
	l.RoundComplete("dynamic", 5*time.Millisecond, 10)
	l.Tick(2 * time.Second)
	totals := l.Registry().Totals()
	if got := totals[MetricDecisionsPerSec]; got != 10 {
		t.Fatalf("decisions/sec after 20 decisions in 2s = %v, want 10", got)
	}
	key := MetricDecisionsTotal + `{policy="dynamic"}`
	if got := totals[key]; got != 20 {
		t.Fatalf("%s = %v, want 20", key, got)
	}
	if got := totals[MetricUptimeRounds]; got != 2 {
		t.Fatalf("%s = %v, want 2", MetricUptimeRounds, got)
	}
	// The 30 s window slides: with no further decisions the rate decays
	// to 0 once the active window holds no delta.
	l.Tick(20 * time.Second)
	l.Tick(40 * time.Second)
	if got := l.Registry().Totals()[MetricDecisionsPerSec]; got != 0 {
		t.Fatalf("decisions/sec after an idle window = %v, want 0", got)
	}
}

func TestReloadGenerationSemantics(t *testing.T) {
	l := New(Options{Tool: "t"})
	if gen := l.Reload(ReloadNoop, "identical"); gen != 2 {
		t.Fatalf("noop reload generation = %d, want 2", gen)
	}
	if gen := l.Reload(ReloadSuccess, "switched"); gen != 3 {
		t.Fatalf("success reload generation = %d, want 3", gen)
	}
	if gen := l.Reload(ReloadFailure, "bad config"); gen != 3 {
		t.Fatalf("failure reload generation = %d, want 3 (failures must not bump)", gen)
	}
	totals := l.Registry().Totals()
	for result, want := range map[string]float64{ReloadNoop: 1, ReloadSuccess: 1, ReloadFailure: 1} {
		key := MetricReloadsTotal + `{result="` + result + `"}`
		if totals[key] != want {
			t.Errorf("%s = %v, want %v", key, totals[key], want)
		}
	}
	if totals[MetricGeneration] != 3 {
		t.Errorf("%s = %v, want 3", MetricGeneration, totals[MetricGeneration])
	}
	// Every outcome lands in the /sliz event ring, failures included.
	var results []string
	for _, e := range l.Snapshot().Events {
		if e.Kind == "config.reload" {
			results = append(results, e.Result)
		}
	}
	if want := []string{ReloadNoop, ReloadSuccess, ReloadFailure}; strings.Join(results, ",") != strings.Join(want, ",") {
		t.Errorf("config.reload events = %v, want %v", results, want)
	}
}

func TestSSEDropCauses(t *testing.T) {
	l := New(Options{Tool: "t"})
	l.SSEDropped(DropSlowConsumer, 4)
	l.SSEDropped(DropShutdown, 2)
	l.SSEDropped(DropSlowConsumer, 0) // zero adds must not register noise
	totals := l.Registry().Totals()
	if got := totals[MetricSSEDroppedTotal+`{cause="`+DropSlowConsumer+`"}`]; got != 4 {
		t.Errorf("slow-consumer drops = %v, want 4", got)
	}
	if got := totals[MetricSSEDroppedTotal+`{cause="`+DropShutdown+`"}`]; got != 2 {
		t.Errorf("shutdown drops = %v, want 2", got)
	}
}

// TestSnapshotFiltersToCatalog: /sliz totals carry rwc_sli_* series
// only — the alert engine's internal families stay private.
func TestSnapshotFiltersToCatalog(t *testing.T) {
	l := New(Options{Tool: "rwc-wansimd"})
	l.Tick(time.Second)
	l.RoundComplete("dynamic", time.Millisecond, 2)
	l.Lifecycle("daemon.start", "test")
	snap := l.Snapshot()
	if snap.Tool != "rwc-wansimd" || snap.Generation != 1 || snap.UptimeNs != time.Second.Nanoseconds() {
		t.Fatalf("snapshot header = %+v", snap)
	}
	if len(snap.Totals) == 0 {
		t.Fatal("snapshot totals empty")
	}
	for key := range snap.Totals {
		if !strings.HasPrefix(key, Prefix) {
			t.Errorf("non-catalog series %s leaked into the /sliz snapshot", key)
		}
	}
	if len(snap.Events) == 0 || snap.Events[len(snap.Events)-1].Kind != "daemon.start" {
		t.Fatalf("snapshot events = %+v", snap.Events)
	}
	if snap.ActiveAlerts == nil {
		t.Fatal("ActiveAlerts must marshal as [], not null")
	}
}

func TestEventRingIsBounded(t *testing.T) {
	l := New(Options{Tool: "t"})
	for i := 0; i < eventKeep+10; i++ {
		l.Lifecycle("tick", fmt.Sprint(i))
	}
	events := l.Snapshot().Events
	if len(events) != eventKeep {
		t.Fatalf("event ring holds %d, want %d", len(events), eventKeep)
	}
	if got, want := events[len(events)-1].Detail, fmt.Sprint(eventKeep+9); got != want {
		t.Fatalf("newest event = %q, want %q (the ring keeps the newest)", got, want)
	}
}

// TestBurnRateRulesQuietOnHealthyRun: CI's daemon smoke asserts no
// alert fires on a healthy run; pin that here with fast rounds and
// cheap scrapes over several windows of uptime.
func TestBurnRateRulesQuietOnHealthyRun(t *testing.T) {
	l := New(Options{Tool: "t"})
	for i := 1; i <= 60; i++ {
		l.RoundComplete("dynamic", 3*time.Millisecond, 1)
		l.ScrapeObserved(500 * time.Microsecond)
		l.Tick(time.Duration(i) * 5 * time.Second)
	}
	snap := l.Snapshot()
	if len(snap.ActiveAlerts) != 0 {
		t.Fatalf("healthy run fired alerts: %+v", snap.ActiveAlerts)
	}
	if got := l.Registry().Totals()[MetricAlertsFiring]; got != 0 {
		t.Fatalf("%s = %v, want 0", MetricAlertsFiring, got)
	}
}

// TestBurnRateFiresOnSustainedSlowRounds: sustained wall latency over
// the SLO must burn both windows and fire round_latency_slo.
func TestBurnRateFiresOnSustainedSlowRounds(t *testing.T) {
	l := New(Options{Tool: "t"})
	for i := 1; i <= 60; i++ {
		l.RoundComplete("dynamic", 30*time.Second, 1) // far over the 5s budget
		l.Tick(time.Duration(i) * 5 * time.Second)
	}
	snap := l.Snapshot()
	found := false
	for _, a := range snap.ActiveAlerts {
		if a.Rule == "round_latency_slo" {
			found = true
		}
	}
	if !found {
		t.Fatalf("round_latency_slo did not fire on sustained 30s rounds; active = %+v", snap.ActiveAlerts)
	}
	if got := l.Registry().Totals()[MetricAlertsFiring]; got < 1 {
		t.Fatalf("%s = %v, want >= 1", MetricAlertsFiring, got)
	}
}
