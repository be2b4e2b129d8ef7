package flight

// The recorder ↔ metrics-history bridge. History is a tap on the
// recorder's registry, like every other writer's: with a history shard
// attached (SetHistory, wired by -hist-out alongside a flight recorder),
// the per-link gauges emitSeries sets append to the shard, stamped by a
// recorder-owned clock that each frame sets to its run's origin +
// round × interval. Log.History replays a flight log's frames through
// the same emitSeries into a private registry bound the same way, which
// is what makes `rwc-replay hist` artifacts byte-identical to a live
// run's: flight frames are a superset of the recorder-owned history.
//
// Determinism: the recorder's shard holds one series per (link,
// policy, run) label set and each is appended by exactly one policy's
// round loop, so per-series order is recording order = round order.
// Admission is the recorder's own DefaultMaxLinks decision (made in Bind, in
// link-table order), so the shard budget is lifted — two budgets would
// double-count drops.

import (
	"repro/internal/obs"
	"repro/internal/obs/hist"
)

// SetHistory attaches a history shard: subsequent frames append their
// per-link series to it. Call before the first Record (earlier frames
// are not backfilled live — replay them with Log.History if needed).
// Nil-safe.
func (r *Recorder) SetHistory(sh *hist.Shard) {
	if r == nil || sh == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	bindHistory(r.reg, sh, r.clock)
	for _, st := range r.runs {
		st.gauges = nil // resolved before the registry had a history sink
	}
}

// bindHistory taps reg into sh, stamping appends with clock.
func bindHistory(reg *obs.Registry, sh *hist.Shard, clock obs.Clock) {
	sh.SetBudget(-1)
	reg.SetHistory(linkSink{sh.Bind(clock)})
}

// linkSink admits only the two per-link families into history: the
// recorder's obs_flight_* counters describe the recorder, not the
// network, and stay out of the store.
type linkSink struct{ obs.HistorySink }

func (s linkSink) Series(name string, labels []obs.Label, typ string) obs.HistorySeries {
	if name != snrFamily && name != capacityFamily {
		return nil
	}
	return s.HistorySink.Series(name, labels, typ)
}

// History rebuilds a metrics-history store from the log's frames: the
// recorder-owned series exactly as a live run with SetHistory would
// have recorded them (frames are already canonically sorted, and
// per-series append order only depends on round order, so live and
// rebuilt stores serialize byte-identically). Round r of a run is
// stamped at the run's origin + r × its interval, as its run table
// records them.
func (l *Log) History() *hist.Store {
	st := hist.New(hist.Options{Tool: l.Meta.Tool, Seed: l.Meta.Seed})
	reg, clock := obs.NewRegistry(), obs.NewSimClock()
	bindHistory(reg, st.Root(), clock)
	states := make(map[string]*runState, len(l.Runs))
	for _, run := range l.Runs {
		states[run.Name] = &runState{links: run.Links, admitted: run.Admitted, origin: run.Origin, interval: run.Interval}
	}
	for i := range l.Frames {
		if rs := states[l.Frames[i].Run]; rs != nil {
			clock.Set(rs.at(l.Frames[i].Round))
			emitSeries(reg, rs, &l.Frames[i])
		}
	}
	return st
}
