// Package hist is the deterministic in-process time-series store
// behind the metrics-history plane: per-series ring buffers keyed by
// (name, labels) holding sim-time-stamped samples, with configurable
// retention (the oldest raw sample is discarded once a ring is full), a
// small query engine (range select with min/last window aggregations —
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

const (
	// DefaultRetain is the raw-ring depth per series when Options.Retain
	// is 0: at the default 6-hour round cadence this is nearly 3 years of
	// rounds, so only very long or very chatty runs lose their oldest
	// samples.
	DefaultRetain = 4096
	// DefaultMaxSeries is the per-shard series admission budget — the
	// history analogue of the flight recorder's DefaultMaxLinks —
	// decided in each shard's first-touch order (deterministic: one
	// writer per shard). Denied series are counted, never stored.
	DefaultMaxSeries = 512
)

// Options tunes a Store.
type Options struct {
	// Retain is the raw samples kept per series; once the ring is full
	// each append discards the oldest (0 = DefaultRetain, negative = 1).
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
	mu      sync.Mutex
	opt     Options
	root    *Shard
	shards  []*Shard
	dropped int // series denied by per-shard budgets, store-wide
}

// New builds a store with one root shard.
func New(opt Options) *Store {
	st := &Store{opt: opt.normalized()}
	st.root = &Shard{
		store:  st,
		budget: DefaultMaxSeries,
		series: make(map[string]*bucket),
		denied: make(map[string]bool),
	}
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

// Options returns the store's normalized options (archive headers
// embed them).
func (st *Store) Options() Options {
	if st == nil {
		return Options{}
	}
	return st.opt
}

// Dropped reports how many series the per-shard budgets denied.
func (st *Store) Dropped() int {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.dropped
}

// Shard is one fan-out node's private slice of the store. Every series
// written through a shard has a single writer (the fan-out unit the
// shard belongs to), which is what makes per-shard sample order
// deterministic.
type Shard struct {
	store     *Store
	path      []int
	nextChild int
	budget    int // per-shard admission budget; negative = unlimited
	series    map[string]*bucket
	denied    map[string]bool
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
		budget: DefaultMaxSeries,
		series: make(map[string]*bucket),
		denied: make(map[string]bool),
	}
	sh.nextChild++
	st.shards = append(st.shards, child)
	return child
}

// SetBudget overrides the shard's series admission budget (negative =
// unlimited). A flight log's rebuilt history (flight.Log.History) runs
// unlimited: the DefaultMaxLinks admission its run tables record
// already bounded its cardinality deterministically.
func (sh *Shard) SetBudget(n int) {
	if sh == nil {
		return
	}
	sh.store.mu.Lock()
	sh.budget = n
	sh.store.mu.Unlock()
}

// Bind wraps the shard as an obs.HistorySink stamping appends with
// clock. A nil shard yields a nil sink (history disabled).
func (sh *Shard) Bind(clock obs.Clock) obs.HistorySink {
	if sh == nil {
		return nil
	}
	return sink{sh: sh, clock: clock}
}

// handle registers (or fetches) the shard's bucket for a series,
// enforcing the admission budget. Returns nil when denied.
func (sh *Shard) handle(name string, labels []obs.Label, typ string) *bucket {
	st := sh.store
	st.mu.Lock()
	defer st.mu.Unlock()
	key := Key(name, labels)
	b, ok := sh.series[key]
	if ok {
		return b
	}
	if sh.budget >= 0 && len(sh.series) >= sh.budget {
		if !sh.denied[key] {
			sh.denied[key] = true
			st.dropped++
		}
		return nil
	}
	b = &bucket{name: name, labels: canonLabels(labels), typ: typ, key: key, path: sh.path}
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
// clock; a nil bucket (budget-denied) no-ops.
type clockSeries struct {
	sh    *Shard
	b     *bucket
	clock obs.Clock
}

func (c clockSeries) Append(v float64) {
	if c.b == nil {
		return
	}
	var t time.Duration
	if c.clock != nil {
		t = c.clock.Now()
	}
	st := c.sh.store
	st.mu.Lock()
	c.b.append(st.opt.Retain, obs.Sample{T: t, V: v})
	st.mu.Unlock()
}

func (c clockSeries) Window(from, to time.Duration) []obs.Sample {
	if c.b == nil {
		return nil
	}
	st := c.sh.store
	st.mu.Lock()
	defer st.mu.Unlock()
	return c.b.window(from, to)
}

// bucket is one series' storage inside one shard: the raw ring. All
// access is under the store mutex.
type bucket struct {
	name   string
	labels []obs.Label // canonically sorted
	typ    string
	key    string
	path   []int // owning shard path (canonical merge order)

	total uint64 // lifetime appends

	raw     []obs.Sample // ring; raw[rawHead] is oldest once full
	rawHead int
	// unordered is set once an append's timestamp went backwards (window
	// then scans the whole ring).
	unordered bool
}

// append records one sample, overwriting the oldest raw sample once the
// ring holds retain.
func (b *bucket) append(retain int, s obs.Sample) {
	if n := len(b.raw); n > 0 && s.T < b.raw[(b.rawHead+n-1)%n].T { // the newest sample
		b.unordered = true
	}
	b.total++
	if len(b.raw) < retain {
		b.raw = append(b.raw, s)
		return
	}
	b.raw[b.rawHead] = s
	b.rawHead = (b.rawHead + 1) % len(b.raw)
}

// appendRaw appends the retained raw samples to dst, oldest first.
func (b *bucket) appendRaw(dst []obs.Sample) []obs.Sample {
	return append(append(dst, b.raw[b.rawHead:]...), b.raw[:b.rawHead]...)
}

// window returns the retained raw samples with T in (from, to], oldest
// first. The alert engine asks for the last few rounds every round, so
// while timestamps are non-decreasing the scan starts after the newest
// sample with T <= from instead of at the oldest retained one.
func (b *bucket) window(from, to time.Duration) []obs.Sample {
	n := len(b.raw)
	start := 0 // offset from the oldest sample
	if !b.unordered {
		for start = n; start > 0 && b.raw[(b.rawHead+start-1)%n].T > from; start-- {
		}
	}
	var out []obs.Sample
	for i := start; i < n; i++ {
		if s := b.raw[(b.rawHead+i)%n]; s.T > from && s.T <= to {
			out = append(out, s)
		}
	}
	return out
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
// held only while the matching rings are grouped and copied, so a
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
		v := seriesView{name: g[0].name, labels: g[0].labels, typ: g[0].typ}
		n := 0
		for _, b := range g {
			n += len(b.raw)
		}
		v.samples = make([]obs.Sample, 0, n)
		for _, b := range g {
			v.total += b.total
			v.samples = b.appendRaw(v.samples)
		}
		views = append(views, v)
	}
	st.mu.Unlock()
	// The samples sit shard by shard in path order, so a stable sort on
	// the timestamp completes the canonical (timestamp, shard path,
	// per-shard sequence) order.
	for _, v := range views {
		slices.SortStableFunc(v.samples, func(a, b obs.Sample) int { return cmp.Compare(a.T, b.T) })
	}
	return views
}

// canonLabels returns a canonically sorted copy.
func canonLabels(labels []obs.Label) []obs.Label {
	ls := append([]obs.Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}
