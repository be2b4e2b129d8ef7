package perf

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func findPhase(t *testing.T, rep Report, name string) PhaseReport {
	t.Helper()
	for _, p := range rep.Phases {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("phase %q missing from report (have %v)", name, rep.Phases)
	return PhaseReport{}
}

func TestPhaseAggregation(t *testing.T) {
	r := New("test")
	for _, ms := range []int64{2, 8, 4} {
		r.Observe("solve", time.Duration(ms)*time.Millisecond)
	}
	rep := r.Snapshot(nil)
	p := findPhase(t, rep, "solve")
	if p.Count != 3 || p.TotalNs != 14e6 || p.MinNs != 2e6 || p.MaxNs != 8e6 {
		t.Fatalf("aggregate = %+v", p)
	}
	// 2ms and 4ms land in the ≤6.4ms bucket, 8ms in ≤25.6ms.
	var total int64
	for i, c := range p.BucketsNs {
		total += c
		switch rep.BucketBoundsNs[i] {
		case 6_400_000:
			if c != 2 {
				t.Fatalf("≤6.4ms bucket = %d, want 2", c)
			}
		case 25_600_000:
			if c != 1 {
				t.Fatalf("≤25.6ms bucket = %d, want 1", c)
			}
		}
	}
	if total != p.Count {
		t.Fatalf("bucket sum %d != count %d", total, p.Count)
	}
	// Recent samples are oldest-first.
	want := []int64{2e6, 8e6, 4e6}
	if len(p.RecentNs) != len(want) {
		t.Fatalf("recent = %v", p.RecentNs)
	}
	for i := range want {
		if p.RecentNs[i] != want[i] {
			t.Fatalf("recent = %v, want %v", p.RecentNs, want)
		}
	}
}

func TestRecentRingWrapsOldestFirst(t *testing.T) {
	r := New("test")
	n := recentSamples + 5
	for i := 1; i <= n; i++ {
		r.Observe("ring", time.Duration(i)*time.Microsecond)
	}
	p := findPhase(t, r.Snapshot(nil), "ring")
	if p.Count != int64(n) {
		t.Fatalf("count = %d", p.Count)
	}
	if len(p.RecentNs) != recentSamples {
		t.Fatalf("ring holds %d, want %d", len(p.RecentNs), recentSamples)
	}
	// After wrapping, the ring holds samples 6..n in order.
	for i, ns := range p.RecentNs {
		if want := int64(6+i) * 1000; ns != want {
			t.Fatalf("recent[%d] = %d, want %d", i, ns, want)
		}
	}
}

func TestPhaseCloserTimes(t *testing.T) {
	r := New("test")
	end := r.Phase("timed")
	time.Sleep(time.Millisecond)
	end()
	p := findPhase(t, r.Snapshot(nil), "timed")
	if p.Count != 1 || p.TotalNs < time.Millisecond.Nanoseconds() {
		t.Fatalf("timed phase = %+v, want ≥1ms", p)
	}
}

func TestNilRecorderIsDisabled(t *testing.T) {
	var r *Recorder
	r.Phase("x")() // must not panic
	r.Observe("x", time.Second)
	rep := r.Snapshot(map[string]float64{"rwc_work_x": 1})
	if rep.Kind != ReportKind || len(rep.Phases) != 0 || rep.Work != nil {
		t.Fatalf("nil snapshot = %+v", rep)
	}
	// The disabled closer is the shared no-op, not a fresh closure.
	end1 := r.Phase("a")
	end2 := r.Phase("b")
	end1()
	end2()
}

func TestConcurrentObserve(t *testing.T) {
	r := New("test")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Observe("par", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if p := findPhase(t, r.Snapshot(nil), "par"); p.Count != 800 {
		t.Fatalf("count = %d, want 800", p.Count)
	}
}

func TestSnapshotPhasesSortedByName(t *testing.T) {
	r := New("test")
	r.Observe("zeta", time.Microsecond)
	r.Observe("alpha", time.Microsecond)
	rep := r.Snapshot(nil)
	if len(rep.Phases) != 2 || rep.Phases[0].Name != "alpha" || rep.Phases[1].Name != "zeta" {
		t.Fatalf("phases = %+v, want name-sorted", rep.Phases)
	}
}

func TestWriteJSONAndSniff(t *testing.T) {
	r := New("tool-x")
	r.Observe("solve", time.Millisecond)
	var buf bytes.Buffer
	work := map[string]float64{"rwc_work_dijkstra_pops_total": 42}
	if err := r.WriteJSON(&buf, work); err != nil {
		t.Fatal(err)
	}
	if !IsReport(buf.Bytes()) {
		t.Fatal("artifact does not sniff as a perf report")
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Kind != ReportKind || rep.Tool != "tool-x" || rep.Work["rwc_work_dijkstra_pops_total"] != 42 {
		t.Fatalf("round-trip = %+v", rep)
	}
	if IsReport([]byte(`{"kind":"other"}`)) || IsReport([]byte("not json")) {
		t.Fatal("non-perf JSON sniffed as perf")
	}
}

func TestFilterWork(t *testing.T) {
	totals := map[string]float64{
		`rwc_work_dijkstra_pops_total{policy="dynamic"}`: 100,
		`wan_capacity_gbps{policy="dynamic"}`:            800,
		"rwc_work_solves_total":                          7,
	}
	got := FilterWork(totals)
	if len(got) != 2 || got[`rwc_work_dijkstra_pops_total{policy="dynamic"}`] != 100 || got["rwc_work_solves_total"] != 7 {
		t.Fatalf("FilterWork = %v", got)
	}
}
