// Package hist is the deterministic in-process time-series store
// behind the metrics-history plane: per-series ring buffers keyed by
// (name, labels) holding sim-time-stamped samples, with configurable
// retention, a downsampling tier (raw samples that age out of the ring
// fold into per-N-sample min/max/mean/last blocks), a small query
// engine (range select, rate/delta, quantile-over-window, min/max/avg
// aggregations — see query.go), and canonical binary + JSONL
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
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Defaults for Options fields left zero.
const (
	// DefaultRetain is the raw-ring depth per series: at the default
	// 6-hour round cadence this is nearly 3 years of rounds, so
	// downsampling only engages on very long or very chatty runs.
	DefaultRetain = 4096
	// DefaultDownsampleEvery folds this many evicted raw samples into
	// one min/max/mean/last block.
	DefaultDownsampleEvery = 8
	// DefaultRetainBlocks is the downsampled-block ring depth.
	DefaultRetainBlocks = 1024
	// DefaultMaxSeries is the per-shard series admission budget — the
	// history analogue of the flight recorder's -flight-links budget.
	DefaultMaxSeries = 512
)

// Options tunes a Store.
type Options struct {
	// Retain is the raw samples kept per series before the oldest fold
	// into the downsample tier (0 = DefaultRetain, negative = 1).
	Retain int
	// DownsampleEvery is how many evicted raw samples make one
	// downsampled block (0 = DefaultDownsampleEvery, negative
	// disables the tier: evicted samples are discarded).
	DownsampleEvery int
	// RetainBlocks is the downsampled-block ring depth per series
	// (0 = DefaultRetainBlocks).
	RetainBlocks int
	// MaxSeries is the per-shard series admission budget, decided in
	// each shard's first-touch order (deterministic: one writer per
	// shard). Denied series are counted, never stored. 0 =
	// DefaultMaxSeries; negative = unlimited.
	MaxSeries int
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
	if o.DownsampleEvery == 0 {
		o.DownsampleEvery = DefaultDownsampleEvery
	}
	if o.RetainBlocks <= 0 {
		o.RetainBlocks = DefaultRetainBlocks
	}
	if o.MaxSeries == 0 {
		o.MaxSeries = DefaultMaxSeries
	}
	return o
}

// Block is one downsampled tier entry: the min/max/mean/last digest of
// DownsampleEvery consecutive raw samples that aged out of the ring.
type Block struct {
	StartNs int64   `json:"start_ns"`
	EndNs   int64   `json:"end_ns"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Mean    float64 `json:"mean"`
	Last    float64 `json:"last"`
	Count   uint64  `json:"count"`
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
		budget: st.opt.MaxSeries,
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

// NewChild allocates the shard's next child, in call order. Callers
// must allocate children deterministically (obs.Child is invoked from
// serial pre-dispatch loops).
func (sh *Shard) NewChild() *Shard {
	if sh == nil {
		return nil
	}
	st := sh.store
	st.mu.Lock()
	defer st.mu.Unlock()
	child := &Shard{
		store:  st,
		path:   append(append([]int(nil), sh.path...), sh.nextChild),
		budget: st.opt.MaxSeries,
		series: make(map[string]*bucket),
		denied: make(map[string]bool),
	}
	sh.nextChild++
	st.shards = append(st.shards, child)
	return child
}

// SetBudget overrides the shard's series admission budget (negative =
// unlimited). The flight recorder's shard runs unlimited: its own
// MaxLinks budget already bounds cardinality deterministically.
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

// Handle is a direct append handle with caller-supplied timestamps —
// the flight recorder computes round × interval itself instead of
// reading a clock.
type Handle struct {
	sh *Shard
	b  *bucket
}

// Series resolves a direct handle for one series (a no-op handle when
// the budget denies it).
func (sh *Shard) Series(name string, labels []obs.Label, typ string) Handle {
	if sh == nil {
		return Handle{}
	}
	b := sh.handle(name, labels, typ)
	return Handle{sh: sh, b: b}
}

// AppendAt records one sample at an explicit simulation offset.
func (h Handle) AppendAt(t time.Duration, v float64) {
	if h.b == nil {
		return
	}
	st := h.sh.store
	st.mu.Lock()
	h.b.append(st.opt, obs.Sample{T: t, V: v})
	st.mu.Unlock()
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
	return sink{sh: s.sh.NewChild(), clock: clock}
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
	c.b.append(st.opt, obs.Sample{T: t, V: v})
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

// bucket is one series' storage inside one shard: the raw ring plus
// the downsample tier. All access is under the store mutex.
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

	pend       Block // accumulating downsample block
	pendN      int
	pendSum    float64
	blocks     []Block // ring; blocks[blocksHead] is oldest once full
	blocksHead int
}

// append records one sample, evicting (and folding) the oldest raw
// sample when the ring is full.
func (b *bucket) append(opt Options, s obs.Sample) {
	if n := len(b.raw); n > 0 && s.T < b.raw[(b.rawHead+n-1)%n].T { // the newest sample
		b.unordered = true
	}
	b.total++
	if len(b.raw) < opt.Retain {
		b.raw = append(b.raw, s)
		return
	}
	old := b.raw[b.rawHead]
	b.raw[b.rawHead] = s
	b.rawHead = (b.rawHead + 1) % len(b.raw)
	b.fold(opt, old)
}

// fold accumulates one evicted raw sample into the pending downsample
// block, sealing the block every DownsampleEvery samples.
func (b *bucket) fold(opt Options, s obs.Sample) {
	if opt.DownsampleEvery < 0 {
		return
	}
	if b.pendN == 0 {
		b.pend = Block{StartNs: s.T.Nanoseconds(), Min: s.V, Max: s.V}
		b.pendSum = 0
	}
	b.pendN++
	b.pendSum += s.V
	if s.V < b.pend.Min {
		b.pend.Min = s.V
	}
	if s.V > b.pend.Max {
		b.pend.Max = s.V
	}
	b.pend.EndNs = s.T.Nanoseconds()
	b.pend.Last = s.V
	b.pend.Count = uint64(b.pendN)
	if b.pendN >= opt.DownsampleEvery {
		b.pend.Mean = b.pendSum / float64(b.pendN)
		b.pushBlock(opt, b.pend)
		b.pendN = 0
	}
}

func (b *bucket) pushBlock(opt Options, blk Block) {
	if len(b.blocks) < opt.RetainBlocks {
		b.blocks = append(b.blocks, blk)
		return
	}
	b.blocks[b.blocksHead] = blk
	b.blocksHead = (b.blocksHead + 1) % len(b.blocks)
}

// eachRaw visits the retained raw samples oldest-first.
func (b *bucket) eachRaw(f func(obs.Sample)) {
	n := len(b.raw)
	for i := 0; i < n; i++ {
		f(b.raw[(b.rawHead+i)%n])
	}
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

// eachBlock visits the retained downsampled blocks oldest-first.
func (b *bucket) eachBlock(f func(Block)) {
	n := len(b.blocks)
	for i := 0; i < n; i++ {
		f(b.blocks[(b.blocksHead+i)%n])
	}
}

// seriesView is one series' canonical cross-shard merge: per-shard
// sequences interleaved by (timestamp, shard path), the order every
// query and archive shares.
type seriesView struct {
	name    string
	labels  []obs.Label
	typ     string
	key     string
	total   uint64
	samples []obs.Sample
	blocks  []Block
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

// collect merges every series across shards into canonical views,
// sorted by series key. The map iterations below feed sorted
// collections, so the output never depends on map order.
func (st *Store) collect() []seriesView {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	byKey := make(map[string][]*bucket)
	for _, sh := range st.shards {
		for key, b := range sh.series {
			byKey[key] = append(byKey[key], b)
		}
	}
	keys := make([]string, 0, len(byKey))
	for key := range byKey {
		keys = append(keys, key)
	}
	sort.Strings(keys)

	out := make([]seriesView, 0, len(keys))
	for _, key := range keys {
		contribs := byKey[key]
		sort.SliceStable(contribs, func(i, j int) bool { return pathLess(contribs[i].path, contribs[j].path) })
		v := seriesView{
			name:   contribs[0].name,
			labels: contribs[0].labels,
			typ:    contribs[0].typ,
			key:    key,
		}
		for _, b := range contribs {
			v.total += b.total
			b.eachRaw(func(s obs.Sample) { v.samples = append(v.samples, s) })
			b.eachBlock(func(blk Block) { v.blocks = append(v.blocks, blk) })
		}
		// Stable sorts keep the shard-path order for equal timestamps,
		// completing the canonical (timestamp, shard path, per-shard
		// sequence) order.
		sort.SliceStable(v.samples, func(i, j int) bool { return v.samples[i].T < v.samples[j].T })
		sort.SliceStable(v.blocks, func(i, j int) bool {
			if v.blocks[i].StartNs != v.blocks[j].StartNs {
				return v.blocks[i].StartNs < v.blocks[j].StartNs
			}
			return v.blocks[i].EndNs < v.blocks[j].EndNs
		})
		out = append(out, v)
	}
	return out
}

// canonLabels returns a canonically sorted copy.
func canonLabels(labels []obs.Label) []obs.Label {
	ls := append([]obs.Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}
