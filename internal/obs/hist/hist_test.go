package hist

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

// appender resolves one series of sh through the shard's admission
// path and returns a writer stamping each sample at an explicit sim
// time, so tests place samples without driving a clock. A budget-denied
// series (or a nil shard) writes nothing.
func appender(sh *Shard, name string, labels []obs.Label, typ string) func(t time.Duration, v float64) {
	if sh == nil {
		return func(time.Duration, float64) {}
	}
	b := sh.handle(name, labels, typ)
	return func(t time.Duration, v float64) {
		if b == nil {
			return
		}
		sh.store.mu.Lock()
		b.append(sh.store.opt.Retain, obs.Sample{T: t, V: v})
		sh.store.mu.Unlock()
	}
}

func simClockAt(t time.Duration) *obs.SimClock {
	c := obs.NewSimClock()
	c.Set(t)
	return c
}

func TestRegistryCaptureStampsSimTime(t *testing.T) {
	st := New(Options{})
	r := obs.NewRegistry()
	clock := obs.NewSimClock()
	r.SetHistory(st.Root().Bind(clock))

	g := r.Gauge("wan_test_gauge", "h", obs.L("policy", "run"))
	c := r.Counter("wan_test_total", "h")
	for round := 0; round < 3; round++ {
		clock.Set(time.Duration(round) * 6 * time.Hour)
		g.Set(float64(10 + round))
		c.Add(2)
	}

	res, err := st.Query(Query{Selector: `wan_test_gauge{policy="run"}`, ToNs: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d series, want 1", len(res))
	}
	want := []obs.Sample{
		{T: 0, V: 10},
		{T: 6 * time.Hour, V: 11},
		{T: 12 * time.Hour, V: 12},
	}
	if len(res[0].Samples) != len(want) {
		t.Fatalf("got %d samples, want %d", len(res[0].Samples), len(want))
	}
	for i, s := range res[0].Samples {
		if s != want[i] {
			t.Errorf("sample %d: got %+v want %+v", i, s, want[i])
		}
	}

	// Counters record the running total at each Add.
	res, err = st.Query(Query{Selector: "wan_test_total", ToNs: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Samples; len(got) != 3 || got[2].V != 6 {
		t.Fatalf("counter history = %+v, want running totals 2,4,6", got)
	}
}

// TestRetentionFoldsIntoBlocks: a full ring overwrites its oldest
// sample. The store has no downsampled blocks, so an evicted sample
// folds into the lifetime total and nothing else.
func TestRetentionFoldsIntoBlocks(t *testing.T) {
	st := New(Options{Retain: 4})
	h := appender(st.Root(), "s", nil, "gauge")
	for i := 0; i < 10; i++ {
		h(time.Duration(i)*time.Second, float64(i))
	}
	res, err := st.Query(Query{Selector: "s", ToNs: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := []obs.Sample{{T: 6 * time.Second, V: 6}, {T: 7 * time.Second, V: 7}, {T: 8 * time.Second, V: 8}, {T: 9 * time.Second, V: 9}}
	if s := res[0]; !reflect.DeepEqual(s.Samples, want) || s.Total != 10 {
		t.Fatalf("retained %+v (total %d), want values 6..9 (total 10)", s.Samples, s.Total)
	}
}

// TestDownsampleDisabled: discarding evicted samples is the store's only
// behaviour. The archive of a ring that evicted samples is byte-equal to
// one written by hand from the retained samples and the lifetime total,
// so no block section or "blocks" descriptor key reaches an archive.
func TestDownsampleDisabled(t *testing.T) {
	st := New(Options{Retain: 2})
	h := appender(st.Root(), "s", nil, "gauge")
	for i := 0; i < 5; i++ {
		h(time.Duration(i), float64(i))
	}
	var got, want bytes.Buffer
	if err := st.Archive().WriteBinary(&got); err != nil {
		t.Fatal(err)
	}
	ref := &Archive{
		Meta:   Meta{Seed: st.Options().Seed},
		Series: []Series{{Name: "s", Type: "gauge", Total: 5, Samples: []obs.Sample{{T: 3, V: 3}, {T: 4, V: 4}}}},
	}
	if err := ref.WriteBinary(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("archive after eviction differs from the retained-samples archive:\n got %q\nwant %q", got.Bytes(), want.Bytes())
	}
	if bytes.Contains(got.Bytes(), []byte(`"blocks"`)) {
		t.Fatalf("archive carries a blocks key: %q", got.Bytes())
	}
}

// fill admits n series named s0, s1, ... through sh, one sample each.
func fill(sh *Shard, n int) {
	for i := 0; i < n; i++ {
		appender(sh, fmt.Sprintf("s%d", i), nil, "gauge")(0, float64(i))
	}
}

func TestBudgetDeniesInFirstTouchOrder(t *testing.T) {
	st := New(Options{})
	sh := st.Root()
	fill(sh, DefaultMaxSeries)
	denied := appender(sh, "denied", nil, "gauge")
	denied(0, 3) // no-op

	if got := len(st.Series()); got != DefaultMaxSeries {
		t.Fatalf("stored %d series, want %d", got, DefaultMaxSeries)
	}
	if st.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", st.Dropped())
	}
	for _, info := range st.Series() {
		if info.Name == "denied" {
			t.Fatal("the series past the budget was stored")
		}
	}
	// Re-touching the denied key must not inflate the counter.
	appender(sh, "denied", nil, "gauge")
	if st.Dropped() != 1 {
		t.Fatalf("dropped after re-touch = %d, want 1", st.Dropped())
	}
	// Budgets are per shard: a child can admit its own series.
	child := sh.NewChild()
	appender(child, "d", nil, "gauge")(0, 4)
	if got := len(st.Series()); got != DefaultMaxSeries+1 {
		t.Fatalf("stored %d series after child admit, want %d", got, DefaultMaxSeries+1)
	}
}

func TestUnlimitedBudget(t *testing.T) {
	st := New(Options{})
	sh := st.Root().NewChild()
	sh.SetBudget(-1)
	fill(sh, DefaultMaxSeries+2)
	if got := len(st.Series()); got != DefaultMaxSeries+2 {
		t.Fatalf("stored %d series, want %d (unlimited)", got, DefaultMaxSeries+2)
	}
	if st.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", st.Dropped())
	}
}

// TestShardMergeCanonicalOrder verifies the worker-independence
// mechanism directly: the same samples written through shards created
// in different orders (and appended in different interleavings) merge
// to the same canonical sequence.
func TestShardMergeCanonicalOrder(t *testing.T) {
	build := func(interleave bool) *Archive {
		st := New(Options{})
		c1 := st.Root().NewChild() // path [0]
		c2 := st.Root().NewChild() // path [1]
		h1 := appender(c1, "s", nil, "gauge")
		h2 := appender(c2, "s", nil, "gauge")
		for r := 0; r < 4; r++ {
			at := time.Duration(r) * time.Hour
			w1 := func() { h1(at, float64(r*10)) }
			w2 := func() { h2(at, float64(r*10+1)) }
			if interleave && r%2 == 1 {
				// Scheduler-order swap: shard [1]'s sample lands first
				// in real time; canonical order must not care.
				w2()
				w1()
			} else {
				w1()
				w2()
			}
		}
		return st.Archive()
	}
	a := build(false)
	b := build(true)
	if d := Diff(a, b); d != nil {
		t.Fatalf("interleaved build diverged: %v", d)
	}
	// Within one timestamp, shard [0]'s sample precedes shard [1]'s —
	// but appendAt wrote r*10 via h1 (shard [0]) when !interleave, and
	// via h2 when interleaved-odd; the canonical order sorts by shard
	// path, so the per-timestamp pair order reflects shards, not
	// arrival. Verify against the explicit expectation.
	s := a.Series[0].Samples
	if len(s) != 8 {
		t.Fatalf("got %d samples, want 8", len(s))
	}
	for r := 0; r < 4; r++ {
		at := time.Duration(r) * time.Hour
		first, second := s[2*r], s[2*r+1]
		if first.T != at || second.T != at {
			t.Fatalf("round %d timestamps = %v,%v want %v", r, first.T, second.T, at)
		}
	}
}

func TestWindowReadsShardLocalSamples(t *testing.T) {
	st := New(Options{})
	r := obs.NewRegistry()
	clock := obs.NewSimClock()
	r.SetHistory(st.Root().Bind(clock))
	g := r.Gauge("g", "h")
	for i := 1; i <= 5; i++ {
		clock.Set(time.Duration(i) * time.Hour)
		g.Set(float64(i))
	}
	sink := r.History()
	series := sink.Series("g", nil, "gauge")
	got := series.Window(2*time.Hour, 4*time.Hour)
	// (2h, 4h] keeps samples at 3h and 4h.
	if len(got) != 2 || got[0].V != 3 || got[1].V != 4 {
		t.Fatalf("window = %+v, want values 3,4", got)
	}
}

// TestWindowMatchesFullScan compares Window — which on a series with
// non-decreasing timestamps starts at the newest sample at or before
// `from` instead of at the oldest retained one — with a scan of the whole
// ring, on a ring that wrapped, on runs of equal timestamps straddling
// both window edges, and on a series that went back in time.
func TestWindowMatchesFullScan(t *testing.T) {
	cases := map[string][]time.Duration{
		"wrapped":      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19},
		"equal-stamps": {1, 1, 2, 2, 2, 3, 3, 4, 4, 4, 4, 5, 6, 6, 7, 7},
		"non-monotone": {5, 6, 7, 3, 4, 8, 9, 2, 10, 11, 6, 12},
		"one-sample":   {4},
	}
	for name, stamps := range cases {
		st := New(Options{Retain: 8})
		clock := obs.NewSimClock()
		series := st.Root().Bind(clock).Series("g", nil, "gauge")
		for i, at := range stamps {
			clock.Set(at * time.Hour)
			series.Append(float64(i))
		}
		b := st.Root().series["g"]
		if want := name == "non-monotone"; b.unordered != want {
			t.Fatalf("%s: unordered = %v, want %v", name, b.unordered, want)
		}
		for from := -1 * time.Hour; from <= 21*time.Hour; from += time.Hour / 2 {
			for to := from; to <= 21*time.Hour; to += time.Hour / 2 {
				var want []obs.Sample
				for _, s := range b.appendRaw(nil) {
					if s.T > from && s.T <= to {
						want = append(want, s)
					}
				}
				if got := series.Window(from, to); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Window(%v, %v) = %v, full scan = %v", name, from, to, got, want)
				}
			}
		}
	}
}

// TestWindowIsNotLinearInRetention: the alert engine asks for the last
// few rounds of a series every round, so that read must not cost what
// the ring holds. 64 reads of the newest 8 of 65 536 retained samples
// took the parent's full scan 13 ms; from the newest sample backwards
// they cost what they do on a ring of 64.
func TestWindowIsNotLinearInRetention(t *testing.T) {
	fastest := func(retain int) time.Duration {
		st := New(Options{Retain: retain})
		h := appender(st.Root(), "g", nil, "gauge")
		for i := 0; i < retain; i++ {
			h(time.Duration(i)*time.Hour, float64(i))
		}
		series := st.Root().Bind(nil).Series("g", nil, "gauge")
		from, to := time.Duration(retain-9)*time.Hour, time.Duration(retain-1)*time.Hour
		best := time.Duration(math.MaxInt64)
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			for i := 0; i < 64; i++ {
				if got := series.Window(from, to); len(got) != 8 {
					t.Fatalf("retain %d: window holds %d samples, want 8", retain, len(got))
				}
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	small, large := fastest(64), fastest(65536)
	if small < 20*time.Microsecond {
		small = 20 * time.Microsecond
	}
	t.Logf("64 windows of 8 samples: retain 64 %v, retain 65536 %v", small, large)
	if large > 32*small {
		t.Fatalf("window over a 65536-sample ring took %v, more than 32x a 64-sample ring (%v): linear in retention", large, small)
	}
}

func TestNilStoreIsDisabled(t *testing.T) {
	var st *Store
	if st.Root() != nil {
		t.Fatal("nil store root should be nil")
	}
	if sink := st.Root().Bind(simClockAt(0)); sink != nil {
		t.Fatal("nil shard bind should be nil sink")
	}
	appender(st.Root(), "s", nil, "gauge")(0, 1) // must not panic
	if got := st.Archive(); len(got.Series) != 0 {
		t.Fatal("nil store archive should be empty")
	}
	r := obs.NewRegistry()
	r.SetHistory(nil)
	r.Gauge("g", "h").Set(1) // nil-handle hot path must not panic
}
