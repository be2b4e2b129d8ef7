// Package obs is the zero-dependency observability layer for the
// reproduction: a deterministic metrics registry (counters, gauges,
// fixed-bucket histograms with stable snapshot ordering, exposable as
// Prometheus text format and JSON), an event tracer keyed to
// *simulation* time, and a run manifest recording what a run was.
//
// Design constraints, in order:
//
//   - Disabled must be free. Every sink is reached through nil-safe
//     methods; a nil *Obs (the default everywhere) turns the entire
//     layer into a handful of nil checks, so instrumented packages
//     never guard their own call sites and hot solver loops pay
//     nothing (guarded by BenchmarkDisabled* in this package).
//   - Determinism. Instrumented packages are simulation code subject
//     to rwc-lint's nowalltime rule, so this package never reads the
//     wall clock and stores no duration: trace timestamps come from an
//     injected Clock (a SimClock advanced by the simulation itself),
//     and wall durations live only in internal/obs/perf. Two runs with
//     the same seed produce byte-identical metrics, trace and manifest
//     output.
//   - No dependencies beyond the stdlib.
package obs

import (
	"sync"
	"time"
)

// Clock supplies timestamps as offsets from an implementation-defined
// epoch. Every clock in this package is derived from simulation state.
type Clock interface {
	Now() time.Duration
}

// SimClock is a manually advanced simulation clock: the simulation
// sets it to "round × interval" (or any other state-derived offset)
// and every trace event is stamped with that value. The zero value
// reads as t=0.
type SimClock struct {
	mu sync.Mutex
	t  time.Duration
}

// NewSimClock returns a clock at t=0.
func NewSimClock() *SimClock { return &SimClock{} }

// Set moves the clock to the given simulation offset.
func (c *SimClock) Set(t time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.t = t
	c.mu.Unlock()
}

// Now implements Clock.
func (c *SimClock) Now() time.Duration {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Obs bundles the sinks threaded through the stack. A nil *Obs (or any
// nil field) disables the corresponding sink; every method below is
// safe on a nil receiver, so instrumented code calls unconditionally.
type Obs struct {
	// Metrics receives counters/gauges/histograms.
	Metrics *Registry
	// Trace receives events, stamped with Clock time.
	Trace *Tracer
	// Clock is the simulation clock the instrumented packages advance
	// (wan.Run sets it to round × interval each round).
	Clock *SimClock
}

// New returns an Obs with a fresh registry, tracer and sim clock.
func New() *Obs {
	clock := NewSimClock()
	return &Obs{
		Metrics: NewRegistry(),
		Trace:   NewTracer(clock),
		Clock:   clock,
	}
}

// SetSimTime advances the simulation clock (no-op when disabled).
func (o *Obs) SetSimTime(t time.Duration) {
	if o == nil {
		return
	}
	o.Clock.Set(t)
}

// Counter registers (or fetches) a counter; nil when metrics are
// disabled — all Counter methods accept a nil receiver.
func (o *Obs) Counter(name, help string, labels ...Label) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name, help, labels...)
}

// Gauge registers (or fetches) a gauge; nil-safe like Counter.
func (o *Obs) Gauge(name, help string, labels ...Label) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name, help, labels...)
}

// Histogram registers (or fetches) a fixed-bucket histogram; nil-safe
// like Counter.
func (o *Obs) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name, help, buckets, labels...)
}

// Event records a point event on the tracer (no-op when disabled).
func (o *Obs) Event(name string, attrs ...Attr) {
	if o == nil {
		return
	}
	o.Trace.Event(name, attrs...)
}
