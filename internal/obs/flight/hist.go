package flight

// The recorder ↔ metrics-history bridge. With a history shard attached
// (SetHistory, wired by -hist-out alongside a flight recorder), every
// captured frame also appends its per-link gauges to the history store
// stamped at round × interval — the same admission decision and the
// same series names as the recorder's live registry. The identical
// append path is reused by Log.History to rebuild a store from a
// flight log's frames, which is what makes `rwc-replay hist` artifacts
// byte-identical to a live run's: flight frames are a superset of the
// recorder-owned history.
//
// Determinism: the recorder's shard holds one series per (link,
// policy, run) label set and each is appended by exactly one policy's
// round loop, so per-series order is recording order = round order.
// Admission is the recorder's own MaxLinks decision (made in Bind, in
// link-table order), so the shard budget is lifted — two budgets would
// double-count drops.

import (
	"time"

	"repro/internal/obs/hist"
)

// SetHistory attaches a history shard; subsequent frames append their
// per-link series stamped at round × interval. Call before the first
// Record (earlier frames are not backfilled live — replay them with
// Log.History if needed). Nil-safe.
func (r *Recorder) SetHistory(sh *hist.Shard, interval time.Duration) {
	if r == nil || sh == nil {
		return
	}
	// The recorder's MaxLinks budget already bounds cardinality
	// deterministically; a second per-shard budget would double-count.
	sh.SetBudget(-1)
	r.mu.Lock()
	r.hist = sh
	r.histInterval = interval
	for _, st := range r.runs {
		st.hist = nil // handles into a previously attached shard
	}
	r.mu.Unlock()
}

// linkHist are one (run, policy, link)'s history series; !ok means not
// resolved yet (a resolved handle may still be a budget-denied no-op).
type linkHist struct {
	snr, capacity hist.Handle
	ok            bool
}

// appendFrameHistory appends one frame's admitted per-link gauges to a
// history shard through st's handles — the single code path shared by
// live recording and log rebuild, so both produce identical sample
// sequences; sh is the shard every frame of st goes to, and is only
// touched to register.
func appendFrameHistory(sh *hist.Shard, interval time.Duration, st *runState, rec *RoundRecord) {
	t := time.Duration(rec.Round) * interval
	row := policyRow(&st.hist, rec.Policy, len(st.links))
	for i := range rec.Links {
		l := &rec.Links[i]
		if l.LinkIndex < 0 || l.LinkIndex >= len(st.links) || l.LinkIndex >= st.admitted {
			continue
		}
		h := &row[l.LinkIndex]
		if !h.ok {
			labels := st.seriesLabels(rec, l.LinkIndex)
			h.snr = sh.Series("wan_link_snr_db", labels, "gauge")
			h.capacity = sh.Series("wan_link_capacity_gbps", labels, "gauge")
			h.ok = true
		}
		h.snr.AppendAt(t, l.SNRdB)
		h.capacity.AppendAt(t, l.CapacityGbps)
	}
}

// History rebuilds a metrics-history store from the log's frames: the
// recorder-owned series exactly as a live run with SetHistory would
// have recorded them (frames are already canonically sorted, and
// per-series append order only depends on round order, so live and
// rebuilt stores serialize byte-identically). Sim time is round × the
// round interval in the log header.
func (l *Log) History() *hist.Store {
	interval := l.Meta.Interval
	st := hist.New(hist.Options{Tool: l.Meta.Tool, Seed: uint64(l.Meta.Seed)})
	sh := st.Root()
	sh.SetBudget(-1)
	states := make(map[string]*runState, len(l.Runs))
	for i := range l.Runs {
		run := &l.Runs[i]
		states[run.Name] = &runState{links: run.Links, ladder: run.Ladder, admitted: run.Admitted}
	}
	for i := range l.Frames {
		if rs := states[l.Frames[i].Run]; rs != nil {
			appendFrameHistory(sh, interval, rs, &l.Frames[i])
		}
	}
	return st
}
