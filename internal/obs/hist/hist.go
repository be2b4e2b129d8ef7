// Package hist is the deterministic in-process time-series store
// behind the metrics-history plane: per-series sample stores keyed by
// (name, labels) holding sim-time-stamped samples, encoded in
// compressed blocks (see block.go), with configurable retention (the
// oldest raw sample is discarded once Retain are held), a small query
// engine (range select with min/last window aggregations —
// see query.go), and canonical binary + JSONL
// serialization (see archive.go and codec.go).
//
// The paper's whole argument is about *time-series* behaviour — SNR is
// stable for months and then dips for minutes (§2.3), and failures
// become short capacity flaps — so the operations plane needs to answer
// "what was wan_snr_min_db over rounds 1200–1500?" rather than only
// exposing point-in-time snapshots.
//
// Determinism under fan-out is the design constraint that shapes the
// layout. The store is shared by every Obs in a run, but each fan-out
// child records into its own *shard*, identified by its path in the
// fan-out tree ([] for the root, [k] for the root's k-th child, and so
// on). Shards are allocated serially in task order (obs.Child is only
// called from deterministic pre-dispatch loops), and within one shard
// every series has a single writer, so the per-(series, shard) sample
// sequence is identical for every -workers count. Queries and archives
// merge one series' shard sequences by (timestamp, shard path) — a
// canonical order — which makes the serialized artifacts byte-identical
// across worker counts while live queries still see work in flight.
//
// Like every obs sink, the zero/nil state is disabled: the registry
// hook costs one nil check per observation when no store is attached.
package hist

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultRetain is the raw samples kept per series when Options.Retain
// is 0: at the default 6-hour round cadence this is nearly 3 years of
// rounds, so only very long or very chatty runs lose their oldest
// samples.
const DefaultRetain = 4096

// Options tunes a Store.
type Options struct {
	// Retain is the raw samples kept per series; once that many are
	// held each append discards the oldest (0 = DefaultRetain,
	// negative = 1).
	Retain int
	// Tool and Seed identify the producing run in archive headers.
	Tool string
	Seed uint64
}

// normalized fills defaults.
func (o Options) normalized() Options {
	if o.Retain == 0 {
		o.Retain = DefaultRetain
	}
	if o.Retain < 0 {
		o.Retain = 1
	}
	return o
}

// Store is the shared time-series store for one run. All methods are
// safe for concurrent use; a nil *Store is the disabled state.
type Store struct {
	mu     sync.Mutex
	opt    Options
	root   *Shard
	shards []*Shard
}

// New builds a store with one root shard.
func New(opt Options) *Store {
	st := &Store{opt: opt.normalized()}
	st.root = &Shard{store: st, series: make(map[string]*bucket)}
	st.shards = []*Shard{st.root}
	return st
}

// Root returns the store's root shard (the one the run's top-level
// registry binds). Nil-safe.
func (st *Store) Root() *Shard {
	if st == nil {
		return nil
	}
	return st.root
}

// Shard is one fan-out node's private slice of the store. Every series
// written through a shard has a single writer (the fan-out unit the
// shard belongs to), which is what makes per-shard sample order
// deterministic.
type Shard struct {
	store     *Store
	path      []int
	nextChild int
	series    map[string]*bucket
}

// newChild allocates the shard's next child, in call order (a sink's
// Child): callers must allocate children deterministically (obs.Child
// is invoked from serial pre-dispatch loops).
func (sh *Shard) newChild() *Shard {
	if sh == nil {
		return nil
	}
	st := sh.store
	st.mu.Lock()
	defer st.mu.Unlock()
	child := &Shard{
		store:  st,
		path:   append(append([]int(nil), sh.path...), sh.nextChild),
		series: make(map[string]*bucket),
	}
	sh.nextChild++
	st.shards = append(st.shards, child)
	return child
}

// Bind wraps the shard as an obs.HistorySink stamping appends with
// clock. A nil shard yields a nil sink (history disabled).
func (sh *Shard) Bind(clock obs.Clock) obs.HistorySink {
	if sh == nil {
		return nil
	}
	return sink{sh: sh, clock: clock}
}

// handle registers (or fetches) the shard's bucket for a series.
func (sh *Shard) handle(name string, labels []obs.Label, typ string) *bucket {
	st := sh.store
	st.mu.Lock()
	defer st.mu.Unlock()
	key := Key(name, labels)
	if b, ok := sh.series[key]; ok {
		return b
	}
	b := &bucket{name: name, labels: canonLabels(labels), typ: typ, key: key, path: sh.path}
	sh.series[key] = b
	return b
}

// sink implements obs.HistorySink over one shard + clock.
type sink struct {
	sh    *Shard
	clock obs.Clock
}

func (s sink) Series(name string, labels []obs.Label, typ string) obs.HistorySeries {
	return clockSeries{sh: s.sh, b: s.sh.handle(name, labels, typ), clock: s.clock}
}

func (s sink) Child(clock obs.Clock) obs.HistorySink {
	return sink{sh: s.sh.newChild(), clock: clock}
}

// clockSeries implements obs.HistorySeries: appends stamp the sink's
// clock.
type clockSeries struct {
	sh    *Shard
	b     *bucket
	clock obs.Clock
}

func (c clockSeries) Append(v float64) {
	var t time.Duration
	if c.clock != nil {
		t = c.clock.Now()
	}
	st := c.sh.store
	st.mu.Lock()
	c.b.append(st.opt.Retain, obs.Sample{T: t, V: v})
	st.mu.Unlock()
}

// bucket is one series' storage inside one shard: its retained
// samples, encoded in blocks (see block.go). All access is under the
// store mutex.
type bucket struct {
	name   string
	labels []obs.Label // canonically sorted
	typ    string
	key    string
	path   []int // owning shard path (canonical merge order)

	total uint64 // lifetime appends

	blocks
}

// append records one sample; once more than retain are held, the
// oldest is discarded.
func (b *bucket) append(retain int, s obs.Sample) {
	b.total++
	b.blocks.append(s)
	for b.kept > retain {
		b.drop()
	}
}

// seriesView is one series' canonical cross-shard merge: per-shard
// sequences interleaved by (timestamp, shard path), the order every
// query and archive shares.
type seriesView struct {
	name    string
	labels  []obs.Label
	typ     string
	total   uint64
	samples []obs.Sample
}

// pathLess compares shard paths lexicographically.
func pathLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// group returns the buckets of the series named name (every series
// when name is ""), one group per series key, in canonical (key, shard
// path) order. It copies no samples. The caller holds st.mu.
func (st *Store) group(name string) [][]*bucket {
	var bs []*bucket
	for _, sh := range st.shards {
		for _, b := range sh.series {
			if name == "" || b.name == name {
				bs = append(bs, b)
			}
		}
	}
	// A shard holds each key once and shard paths are distinct, so
	// (key, path) is a total order and map order cannot leak out.
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].key != bs[j].key {
			return bs[i].key < bs[j].key
		}
		return pathLess(bs[i].path, bs[j].path)
	})
	var groups [][]*bucket
	for i, j := 0, 0; i < len(bs); i = j {
		for j = i + 1; j < len(bs) && bs[j].key == bs[i].key; j++ {
		}
		groups = append(groups, bs[i:j:j])
	}
	return groups
}

// merge returns the canonical views of the series named name (every
// series when name is "") whose labels match want. The store lock is
// held only while the matching series are grouped and decoded, so a
// round's appends never wait behind a series the caller did not ask
// for, nor behind the sort.
func (st *Store) merge(name string, want map[string]string) []seriesView {
	if st == nil {
		return nil
	}
	var views []seriesView
	st.mu.Lock()
	for _, g := range st.group(name) {
		if !labelsMatch(g[0].labels, want) {
			continue
		}
		n := 0
		for _, b := range g {
			n += b.kept
		}
		views = append(views, viewOf(g, make([]obs.Sample, 0, n)))
	}
	st.mu.Unlock()
	for i := range views {
		sortSamples(views[i].samples)
	}
	return views
}

// viewOf decodes one group's buckets into samples, shard by shard in
// path order; sortSamples then completes the canonical order. The
// caller holds st.mu.
func viewOf(g []*bucket, samples []obs.Sample) seriesView {
	v := seriesView{name: g[0].name, labels: g[0].labels, typ: g[0].typ, samples: samples}
	for _, b := range g {
		v.total += b.total
		v.samples = b.appendRaw(v.samples)
	}
	return v
}

// sortSamples puts one series' samples, as viewOf leaves them, in the
// canonical (timestamp, shard path, per-shard sequence) order: they sit
// shard by shard in path order, so a stable sort on the timestamp
// completes it. A series of one shard in round order is already
// sorted, and a stable sort would leave it as it is.
func sortSamples(samples []obs.Sample) {
	byT := func(a, b obs.Sample) int { return cmp.Compare(a.T, b.T) }
	if !slices.IsSortedFunc(samples, byT) {
		slices.SortStableFunc(samples, byT)
	}
}

// canonLabels returns a canonically sorted copy.
func canonLabels(labels []obs.Label) []obs.Label {
	ls := append([]obs.Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}
