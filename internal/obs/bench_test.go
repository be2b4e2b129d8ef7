package obs

// The disabled-observability benchmarks guard the tentpole's "no
// measurable overhead" promise: a nil *Obs must cost a nil check per
// call site, so wiring obs through the solver-adjacent layers cannot
// slow the BenchmarkFigure* paths when no sink is attached.

import (
	"testing"
	"time"

	"repro/internal/obs/obstest"
)

func BenchmarkDisabledCounter(b *testing.B) {
	var o *Obs
	c := o.Counter("x_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		c.Add(2)
	}
}

func BenchmarkDisabledEvent(b *testing.B) {
	var o *Obs
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Event("order")
	}
}

func BenchmarkDisabledSimTime(b *testing.B) {
	var o *Obs
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.SetSimTime(time.Duration(i))
	}
}

// The BenchmarkHistoryOff* pair guards the history hook's own
// disabled state: with no sink attached the wrappers carry a nil
// HistorySeries, so metrics-enabled runs without -hist-out pay exactly
// one nil check per observation over the plain enabled path.

func BenchmarkHistoryOffGaugeSet(b *testing.B) {
	o := New()
	g := o.Gauge("x_db", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkHistoryOffCounterAdd(b *testing.B) {
	o := New()
	c := o.Counter("x_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkEnabledCounter(b *testing.B) {
	o := New()
	c := o.Counter("x_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkEnabledHistogramObserve(b *testing.B) {
	o := New()
	h := o.Histogram("h_seconds", "", []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) / 10)
	}
}

// traceEvents is how many events BenchmarkHistoryTraceEvent's held
// measurement records.
const traceEvents = 4096

// recordOrder records one wan.order-shaped event, as internal/wan's
// order trace does: seven attrs, two of them strings.
func recordOrder(tr *Tracer, i int) {
	tr.Event("wan.order",
		A("policy", "dynamic"),
		A("round", i/4),
		A("fiber", i%28),
		A("wavelength", i%2),
		A("from_gbps", 100.0),
		A("to_gbps", 200.0),
		A("cause", "upgrade"))
}

// BenchmarkHistoryTraceEvent is the cost of recording one wan.order
// event, and its bytes/event: the heap a tracer holding traceEvents
// of them keeps live, per event. (The name puts it on bench-json's
// -bench=History line with the history store's own bytes/sample.)
func BenchmarkHistoryTraceEvent(b *testing.B) {
	clock := NewSimClock()
	tr := NewTracer(clock)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clock.Set(time.Duration(i/4) * 6 * time.Hour)
		recordOrder(tr, i)
	}
	b.StopTimer()
	held := obstest.HeldBy(func() any {
		clock := NewSimClock()
		tr := NewTracer(clock)
		for i := 0; i < traceEvents; i++ {
			clock.Set(time.Duration(i/4) * 6 * time.Hour)
			recordOrder(tr, i)
		}
		return tr
	})
	b.ReportMetric(float64(held)/traceEvents, "bytes/event")
}
