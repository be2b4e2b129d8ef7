package hist

import (
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/obstest"
)

// The BenchmarkHistory* suite is the machine-readable perf record the
// Makefile's bench-json target appends to BENCH_history.jsonl: the
// cost of an enabled capture (append through the registry hook), a
// windowed query, and archive serialization.

// BenchmarkHistoryAppend also reports bytes/sample: the heap a series
// holding DefaultRetain samples of the same stream keeps live, per
// sample.
func BenchmarkHistoryAppend(b *testing.B) {
	st := New(Options{})
	h := appender(st.Root(), "x_db", nil, "gauge")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h(time.Duration(i), float64(i))
	}
	b.StopTimer()
	held := obstest.HeldBy(func() any {
		st := New(Options{})
		h := appender(st.Root(), "x_db", nil, "gauge")
		for i := 0; i < DefaultRetain; i++ {
			h(time.Duration(i), float64(i))
		}
		return st
	})
	b.ReportMetric(float64(held)/DefaultRetain, "bytes/sample")
}

func BenchmarkHistoryOnGaugeSet(b *testing.B) {
	st := New(Options{})
	r := obs.NewRegistry()
	r.SetHistory(st.Root().Bind(obs.NewSimClock()))
	g := r.Gauge("x_db", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkHistoryQueryRange(b *testing.B) {
	st := New(Options{})
	h := appender(st.Root(), "x_db", nil, "gauge")
	for i := 0; i < 4096; i++ {
		h(time.Duration(i)*time.Hour, float64(i))
	}
	q := Query{Selector: "x_db", FromNs: 0, ToNs: -1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := st.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistoryQueryOneOfMany is /queryz's shape on the paced
// daemon: one series' last value out of a store of 400 series spread
// over a root shard and two children, ~1 500 samples each.
func BenchmarkHistoryQueryOneOfMany(b *testing.B) {
	st := New(Options{})
	shards := []*Shard{st.Root(), st.Root().newChild(), st.Root().newChild()}
	for s := 0; s < 400; s++ {
		h := appender(shards[s%len(shards)], fmt.Sprintf("x%03d_db", s), []obs.Label{obs.L("policy", "dynamic")}, "gauge")
		for i := 0; i < 1500; i++ {
			h(time.Duration(i)*time.Hour, float64(i))
		}
	}
	q := Query{Selector: "x200_db", ToNs: -1, Op: OpLast}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHistoryArchiveWriteBinary(b *testing.B) {
	st := New(Options{})
	for s := 0; s < 16; s++ {
		h := appender(st.Root(), "x_db", []obs.Label{obs.L("i", string(rune('a'+s)))}, "gauge")
		for i := 0; i < 512; i++ {
			h(time.Duration(i)*time.Hour, float64(i))
		}
	}
	a := st.Archive()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := a.WriteBinary(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
