package obs

import (
	"strings"
	"testing"
	"time"
)

// TestRegistryMergeMatchesSerial: recording into two children and
// merging them in order produces byte-identical Prometheus output to
// recording everything into one registry.
func TestRegistryMergeMatchesSerial(t *testing.T) {
	record := func(r *Registry, phase int) {
		r.Counter("jobs_total", "jobs", L("phase", "a")).Add(float64(2 + phase))
		r.Gauge("queue_depth", "depth").Set(float64(10 * phase))
		r.Histogram("latency_seconds", "lat", []float64{0.1, 1, 10}).Observe(0.5 * float64(phase+1))
	}

	serial := NewRegistry()
	record(serial, 0)
	record(serial, 1)

	parent := NewRegistry()
	c0, c1 := NewRegistry(), NewRegistry()
	record(c0, 0)
	record(c1, 1)
	parent.Merge(c0)
	parent.Merge(c1)

	var a, b strings.Builder
	if err := serial.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := parent.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("merged registry differs from serial:\n--- serial\n%s\n--- merged\n%s", a.String(), b.String())
	}
	// Gauge takes the last merge's value (serial last-write semantics).
	if !strings.Contains(b.String(), "queue_depth 10") {
		t.Fatalf("gauge merge wrong:\n%s", b.String())
	}
}

func TestRegistryMergeNilSafe(t *testing.T) {
	var nilReg *Registry
	nilReg.Merge(NewRegistry()) // no panic
	r := NewRegistry()
	r.Merge(nil) // no panic
	if len(r.Snapshot()) != 0 {
		t.Fatal("merge of nil registered series")
	}
}

// TestTracerMergeMatchesSerial: a trace assembled from per-unit child
// tracers merged in unit order is byte-identical to one recorded
// serially, with sequence numbers renumbered to continue the parent's.
func TestTracerMergeMatchesSerial(t *testing.T) {
	runUnit := func(tr *Tracer, clock *SimClock, unit int) {
		clock.Set(time.Duration(unit) * time.Second)
		tr.Event("unit", A("i", unit))
		tr.Event("work", A("i", unit))
		tr.Event("unit.done", A("ok", 1))
	}

	serialClock := NewSimClock()
	serial := NewTracer(serialClock)
	for u := 0; u < 3; u++ {
		runUnit(serial, serialClock, u)
	}

	parentClock := NewSimClock()
	parent := NewTracer(parentClock)
	for u := 0; u < 3; u++ {
		childClock := NewSimClock()
		child := NewTracer(childClock)
		runUnit(child, childClock, u)
		parent.Merge(child)
	}

	var a, b strings.Builder
	if err := serial.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := parent.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("merged trace differs from serial:\n--- serial\n%s\n--- merged\n%s", a.String(), b.String())
	}
	// Sequence numbers stay contiguous after further activity.
	parent.Event("after")
	events := parent.Events()
	for i, e := range events {
		if e.Seq != i+1 {
			t.Fatalf("seq not contiguous at %d: %+v", i, e)
		}
	}
}

// TestObsChildMerge: the Child/Merge round trip starts the child sim
// clock at the parent's offset and adopts the child's final sim time on
// merge — what serial execution would leave.
func TestObsChildMerge(t *testing.T) {
	parent := New()
	parent.SetSimTime(42 * time.Second)
	child := parent.Child()
	if child.Clock.Now() != 42*time.Second {
		t.Fatalf("child clock starts at %v", child.Clock.Now())
	}
	child.Counter("c_total", "c").Inc()
	child.SetSimTime(99 * time.Second)
	child.Event("ev")
	parent.Merge(child)

	if parent.Clock.Now() != 99*time.Second {
		t.Fatalf("parent clock not adopted: %v", parent.Clock.Now())
	}
	if got := parent.Metrics.Totals()["c_total"]; got != 1 {
		t.Fatalf("counter not merged: %v", got)
	}
	evs := parent.Trace.Events()
	if len(evs) != 1 || evs[0].Name != "ev" || evs[0].T != 99*time.Second {
		t.Fatalf("trace not merged: %+v", evs)
	}
}

func TestObsChildNil(t *testing.T) {
	var o *Obs
	if o.Child() != nil {
		t.Fatal("nil parent must produce nil child")
	}
	o.Merge(nil) // no panic
	parent := New()
	parent.Merge(nil) // no panic
	var nilParent *Obs
	nilParent.Merge(parent) // no panic
}

// TestObsChildDisabledSinks: a parent with partially disabled sinks
// produces children with the same sinks disabled.
func TestObsChildDisabledSinks(t *testing.T) {
	parent := &Obs{Metrics: NewRegistry(), Clock: NewSimClock()}
	child := parent.Child()
	if child.Trace != nil {
		t.Fatal("disabled sinks re-enabled on child")
	}
	if child.Metrics == nil {
		t.Fatal("enabled sink missing on child")
	}
	child.Counter("x_total", "x").Inc()
	parent.Merge(child)
	if parent.Metrics.Totals()["x_total"] != 1 {
		t.Fatal("merge through partially disabled obs failed")
	}
}
