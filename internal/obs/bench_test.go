package obs

// The disabled-observability benchmarks guard the tentpole's "no
// measurable overhead" promise: a nil *Obs must cost a nil check per
// call site, so wiring obs through the solver-adjacent layers cannot
// slow the BenchmarkFigure* paths when no sink is attached.

import (
	"testing"
	"time"
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

func BenchmarkDisabledSpan(b *testing.B) {
	var o *Obs
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		end := o.Span("round")
		end()
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
	o := New("bench")
	g := o.Gauge("x_db", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkHistoryOffCounterAdd(b *testing.B) {
	o := New("bench")
	c := o.Counter("x_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkEnabledCounter(b *testing.B) {
	o := New("bench")
	c := o.Counter("x_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkEnabledHistogramObserve(b *testing.B) {
	o := New("bench")
	h := o.Histogram("h_seconds", "", DurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) / 10)
	}
}
