package flight

// Per-link series as metrics history. A flight frame holds every
// link's SNR and configured capacity, so the per-link history is not
// recorded a second time while a run is live: Log.History rebuilds it
// from a log's frames, appending straight into a fresh store's series
// handles. That is what `rwc-replay hist` writes; a run's own -hist-out
// archive holds its registry series only.
//
// Determinism: the frames are canonically sorted and each (link,
// policy, run) series is appended in round order, so the rebuilt store
// serializes the same however the run's policies were scheduled.
// Admission is the DefaultMaxLinks decision Bind made in link-table
// order and each run table records as its admitted count; the store
// itself admits every series.

import (
	"time"

	"repro/internal/obs"
	"repro/internal/obs/hist"
)

// gaugeType is the history type of the rebuilt series: they are
// gauges, as a registry gauge's history series would be typed.
const gaugeType = "gauge"

// History rebuilds the per-link series wan_link_snr_db and
// wan_link_capacity_gbps from the log's frames as a metrics-history
// store. Round r of a run is stamped at the run's origin + r × its
// interval, as its run table records them.
func (l *Log) History() *hist.Store {
	st := hist.New(hist.Options{Tool: l.Meta.Tool, Seed: l.Meta.Seed})
	clock := obs.NewSimClock()
	sink := st.Root().Bind(clock)
	runs := make(map[string]*Run, len(l.Runs))
	for i := range l.Runs {
		runs[l.Runs[i].Name] = &l.Runs[i]
	}
	// series holds the current (run, policy)'s handles, snr and capacity
	// for each admitted link; sorted frames resolve them once a group.
	var series []obs.HistorySeries
	var prev *RoundRecord
	for i := range l.Frames {
		rec := &l.Frames[i]
		run := runs[rec.Run] // ReadLog resolved every frame's run
		if prev == nil || rec.Run != prev.Run || rec.Policy != prev.Policy {
			series = series[:0]
			for j := range run.Links[:run.Admitted] {
				labels := seriesLabels(run.Links[j].Name, rec)
				series = append(series, sink.Series(snrFamily, labels, gaugeType), sink.Series(capacityFamily, labels, gaugeType))
			}
		}
		prev = rec
		clock.Set(run.Origin + time.Duration(rec.Round)*run.Interval)
		for j := range run.Admitted {
			series[2*j].Append(rec.Links[j].SNRdB)
			series[2*j+1].Append(rec.Links[j].CapacityGbps)
		}
	}
	return st
}

// seriesLabels is the label set of one link's series in one frame's
// (run, policy).
func seriesLabels(link string, rec *RoundRecord) []obs.Label {
	labels := []obs.Label{obs.L("link", link), obs.L("policy", rec.Policy)}
	if rec.Run != "" {
		labels = append(labels, obs.L("run", rec.Run))
	}
	return labels
}
