package obs

// This file implements deterministic fan-in for the fan-out layer
// (internal/par): each unit of concurrent work records into a private
// child Obs, and the coordinator folds the children back into the
// parent in a deterministic order (always the task order, never the
// completion order). Because the registry's expositions are fully
// sorted and the tracer renumbers sequence numbers on merge, a
// run that fans out over N workers produces byte-identical metrics and
// traces to the same run with one worker.

import (
	"math"
	"sort"
)

// Child returns a private Obs for one unit of fan-out work. Each
// enabled sink of the parent gets a fresh child sink; the child's sim
// clock starts at the parent's current offset so events recorded by the
// unit carry sensible timestamps before the unit's own first
// SetSimTime. A nil receiver returns nil, which disables the child
// exactly like any other nil *Obs.
func (o *Obs) Child() *Obs {
	if o == nil {
		return nil
	}
	clock := NewSimClock()
	clock.Set(o.Clock.Now())
	child := &Obs{Clock: clock}
	if o.Metrics != nil {
		child.Metrics = NewRegistry()
		// History shards follow the fan-out tree: each child gets its
		// own shard (allocated here, serially, in task order — that
		// order is what makes the store's canonical serialization
		// worker-count-independent) stamped by the child's clock.
		// Samples land in the shared store as they are recorded, so
		// live /queryz sees fan-out work in flight; nothing is merged
		// back at Merge time.
		o.Metrics.mu.Lock()
		sink := o.Metrics.hist
		o.Metrics.mu.Unlock()
		if sink != nil {
			child.Metrics.SetHistory(sink.Child(clock))
		}
	}
	if o.Trace != nil {
		child.Trace = NewTracer(clock)
	}
	return child
}

// Merge folds a child Obs back into o. Callers must merge children in
// a deterministic order (task order) — the merge itself preserves
// whatever order it is handed. Merging also advances the parent's sim
// clock to the child's final offset, mirroring what serial execution
// would have left behind. Safe when either side (or any sink) is nil.
func (o *Obs) Merge(child *Obs) {
	if o == nil || child == nil {
		return
	}
	o.Metrics.Merge(child.Metrics)
	o.Trace.Merge(child.Trace)
	if o.Clock != nil && child.Clock != nil {
		o.Clock.Set(child.Clock.Now())
	}
}

// Merge folds every series of src into r, reproducing what recording
// directly into r would have left behind: counter totals add, gauges
// take the incoming value (serial semantics: last write wins, and the
// caller merges in task order), histograms add buckets, sum, and
// count. Families are visited in sorted order so even first-touch
// registration order is deterministic; a type conflict panics exactly
// like conflicting registration does.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	src.mu.Lock()
	names := make([]string, 0, len(src.families))
	for name := range src.families {
		names = append(names, name)
	}
	sort.Strings(names)
	type seriesCopy struct {
		labels  []Label
		value   float64
		count   uint64
		buckets []uint64
	}
	type familyCopy struct {
		name, help, typ string
		upper           []float64
		series          []seriesCopy
	}
	fams := make([]familyCopy, 0, len(names))
	for _, name := range names {
		f := src.families[name]
		fc := familyCopy{name: f.name, help: f.help, typ: f.typ, upper: f.upper}
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			s := f.series[sig]
			sc := seriesCopy{labels: s.labels, value: s.load(), count: s.count.Load()}
			if f.typ == typeHistogram {
				sc.buckets = make([]uint64, len(s.bucketCounts))
				for i := range s.bucketCounts {
					sc.buckets[i] = s.bucketCounts[i].Load()
				}
			}
			fc.series = append(fc.series, sc)
		}
		fams = append(fams, fc)
	}
	src.mu.Unlock()

	for _, fc := range fams {
		for _, sc := range fc.series {
			dst := r.getSeries(fc.name, fc.help, fc.typ, fc.upper, sc.labels)
			switch fc.typ {
			case typeCounter:
				dst.addFloat(sc.value)
			case typeGauge:
				dst.bits.Store(math.Float64bits(sc.value))
			case typeHistogram:
				dst.addFloat(sc.value)
				dst.count.Add(sc.count)
				for i, b := range sc.buckets {
					if i < len(dst.bucketCounts) {
						dst.bucketCounts[i].Add(b)
					}
				}
			}
		}
	}
}

// Merge appends src's events to t, renumbering sequence numbers to
// continue t's order. Timestamps are kept exactly as the child
// recorded them.
func (t *Tracer) Merge(src *Tracer) {
	if t == nil || src == nil {
		return
	}
	events := src.Events()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range events {
		e.Seq = len(t.events) + 1
		t.events = append(t.events, e)
		// Live subscribers of the parent see fan-out work when it merges
		// back (task order), matching what the JSONL artifact records.
		t.publishLocked(e)
	}
}
