package obs

// This file defines the registry's optional history hook: a write-only
// sink that receives every counter/gauge/histogram observation together
// with its simulation timestamp. The concrete store lives in
// internal/obs/hist (which imports this package); the interface lives
// here so the registry can capture observations without an import
// cycle. Nothing in a run reads the sink back — the alert engine keeps
// its own burn-rate windows — so attaching one changes no other
// artifact.
//
// The hook follows the layer's two cardinal rules:
//
//   - Disabled must be free. Without a sink the metric wrappers carry
//     a nil HistorySeries and the hot path pays exactly one nil check
//     (guarded by BenchmarkHistoryOff* in this package).
//   - Determinism. Samples are stamped with *simulation* time by the
//     sink (each fan-out shard holds the clock of the Obs it captures
//     for), and the store serializes canonically, so same-seed runs
//     emit byte-identical history artifacts at any -workers count.

import "time"

// Sample is one timestamped observation in a series' history.
type Sample struct {
	// T is the simulation-time offset the observation was recorded at.
	T time.Duration `json:"t_ns"`
	// V is the observed value: the running total for counters, the set
	// value for gauges, the raw observation for histograms.
	V float64 `json:"v"`
}

// HistorySeries is the per-series append handle a sink hands the
// registry at registration time (the cold path); appends go straight
// through the handle (the hot path).
type HistorySeries interface {
	// Append records the current value, stamped with the sink's clock.
	Append(v float64)
}

// HistorySink hands out per-series handles and per-child sinks.
type HistorySink interface {
	// Series resolves the append handle for one series. Implementations
	// return a no-op handle when a cardinality budget denies the series.
	Series(name string, labels []Label, typ string) HistorySeries
	// Child allocates a sink for one fan-out child Obs, stamping with
	// the child's clock. Obs.Child calls this; because children are
	// created serially in task order, allocation order is deterministic
	// and the store can serialize canonically at any worker count.
	Child(clock Clock) HistorySink
}

// SetHistory attaches a history sink to the registry. Attach before
// recording: wrappers resolved earlier keep their nil handle. Nil-safe
// like every registry method.
func (r *Registry) SetHistory(sink HistorySink) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.hist = sink
	r.mu.Unlock()
}

// histSeries resolves one series' history handle (nil when history is
// off) — called on the registration path only.
func (r *Registry) histSeries(name string, labels []Label, typ string) HistorySeries {
	r.mu.Lock()
	sink := r.hist
	r.mu.Unlock()
	if sink == nil {
		return nil
	}
	return sink.Series(name, labels, typ)
}
