package flight

// Per-link series as metrics history. A flight frame holds every
// link's SNR and configured capacity, so the per-link history is not
// recorded a second time while a run is live: Log.History rebuilds it
// from a log's frames, through the same emitSeries the recorder's live
// registry uses, into a private registry tapped into a fresh store.
// That is what `rwc-replay hist` writes; a run's own -hist-out archive
// holds its registry series only.
//
// Determinism: the frames are canonically sorted and each (link,
// policy, run) series is appended in round order, so the rebuilt store
// serializes the same however the run's policies were scheduled.
// Admission is the recorder's DefaultMaxLinks decision (made in Bind,
// in link-table order, and recorded as each run table's admitted
// count), so the store's own budget is lifted — two budgets would
// double-count drops.

import (
	"repro/internal/obs"
	"repro/internal/obs/hist"
)

// History rebuilds the per-link series wan_link_snr_db and
// wan_link_capacity_gbps from the log's frames as a metrics-history
// store. Round r of a run is stamped at the run's origin + r × its
// interval, as its run table records them.
func (l *Log) History() *hist.Store {
	st := hist.New(hist.Options{Tool: l.Meta.Tool, Seed: l.Meta.Seed})
	st.Root().SetBudget(-1)
	reg, clock := obs.NewRegistry(), obs.NewSimClock()
	reg.SetHistory(st.Root().Bind(clock))
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
