package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// oracleEventJSON is the wire shape MarshalEvent rendered through
// encoding/json before the tracer held records: the attrs as a map,
// which encoding/json sorts by key.
type oracleEventJSON struct {
	Seq   int            `json:"seq"`
	TNs   int64          `json:"t_ns"`
	Kind  string         `json:"kind"`
	Name  string         `json:"name"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// oracleMarshalEvent is that map-based rendering, the oracle the
// direct renderer must match byte for byte.
func oracleMarshalEvent(e Event) ([]byte, error) {
	rec := oracleEventJSON{Seq: e.Seq, TNs: e.T.Nanoseconds(), Kind: "event", Name: e.Name}
	if len(e.Attrs) > 0 {
		rec.Attrs = make(map[string]any, len(e.Attrs))
		for _, a := range e.Attrs {
			rec.Attrs[a.Key] = a.Value
		}
	}
	return json.Marshal(rec)
}

// fuzzEvent builds an event with one attr of every stored type, one
// raw-JSON fallback of several kinds, and (dup) a repeated key.
func fuzzEvent(name, key, s string, f float64, n int64, b, dup bool) Event {
	attrs := []Attr{
		A(key, s),
		A("f", f),
		A("i", int(n)),
		A("i64", n),
		A("b", b),
		A("nil", nil),
		A("u64", uint64(n)),
		A("f32", float32(f)),
		A("list", []any{s, n, b}),
		A("obj", map[string]any{s: f}),
		A("raw", json.RawMessage(" [ 1 , \""+strings.ReplaceAll(s, `"`, ``)+"\" ] ")),
		A("dur", time.Duration(n)),
	}
	if dup {
		attrs = append(attrs, A(key, f), A("f", s))
	}
	return Event{Seq: int(n % 1000), T: time.Duration(n), Name: name, Attrs: attrs}
}

// checkRender holds MarshalEvent, and the JSONL a tracer writes from
// its records, to the oracle: the same bytes, or both an error.
func checkRender(t *testing.T, e Event) {
	t.Helper()
	want, wantErr := oracleMarshalEvent(e)
	got, err := MarshalEvent(e)
	if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
		t.Fatalf("MarshalEvent(%+v)\n got %s (err %v)\nwant %s (err %v)", e, got, err, want, wantErr)
	}
	clock := NewSimClock()
	clock.Set(e.T)
	tr := NewTracer(clock)
	for range e.Seq - 1 {
		tr.Event("pad")
	}
	tr.Event(e.Name, e.Attrs...)
	var buf bytes.Buffer
	err = tr.WriteJSONL(&buf)
	if (err != nil) != (wantErr != nil) || (err == nil && !bytes.HasSuffix(buf.Bytes(), append(want, '\n'))) {
		t.Fatalf("WriteJSONL of %+v\n got %s (err %v)\nwant %s (err %v)", e, buf.Bytes(), err, want, wantErr)
	}
	if (tr.JSONL().Err() != nil) != (wantErr != nil) {
		t.Fatalf("JSONL().Err() = %v, oracle error %v", tr.JSONL().Err(), wantErr)
	}
}

// FuzzMarshalEvent: the direct renderer writes what encoding/json
// wrote through a map, for every event; its seeds run in tier-1.
func FuzzMarshalEvent(f *testing.F) {
	for _, s := range []string{"", "plain", "<>&", `a"b\c`, "\x00\x01\b\f\n\r\t\x1f\x7f", "\xff\xfe bad", "line\u2028sep\u2029", "\u00e9\u65e5\U0001F600", "\xed\xa0\x80"} {
		f.Add("wan.order", "policy", s, 1.5, int64(7), true, false)
		f.Add(s, s, s, math.Copysign(0, -1), int64(-1), false, true)
	}
	for _, fl := range []float64{
		0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e21, math.Nextafter(1e21, 0),
		math.Nextafter(1e21, math.Inf(1)), -1e21, -1e-7, 1e-9, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add("x", "k", "v", fl, int64(0), false, false)
		f.Add("x", "f", "v", fl, int64(3), false, true)
	}
	for _, n := range []int64{math.MaxInt64, math.MinInt64, 0, -1, 1 << 53, 255, 256} {
		f.Add("x", "i", "v", 2.0, n, true, true)
	}
	f.Fuzz(func(t *testing.T, name, key, s string, fl float64, n int64, b, dup bool) {
		e := fuzzEvent(name, key, s, fl, n, b, dup)
		if e.Seq < 1 {
			e.Seq = 1
		}
		checkRender(t, e)
	})
}

// TestRenderFailsLikeTheOracle: a value encoding/json cannot hold
// fails the render on both sides, and a repeated key whose last value
// renders does not fail either.
func TestRenderFailsLikeTheOracle(t *testing.T) {
	for _, attrs := range [][]Attr{
		{A("v", math.NaN())},
		{A("v", math.Inf(-1)), A("w", 1)},
		{A("v", make(chan int))},
		{A("v", []float64{math.NaN()})},
		{A("v", math.NaN()), A("v", 1.0)},
		{A("v", make(chan int)), A("v", "ok")},
		{A("v", 1.0), A("v", math.Inf(1))},
	} {
		checkRender(t, Event{Seq: 1, Name: "e", Attrs: attrs})
	}
}

// TestEventsKeepRecordedTypes: Events, the Subscribe backlog and a
// merged tracer decode every attr to the type it was recorded with; a
// value of another type comes back as its encoding/json bytes.
func TestEventsKeepRecordedTypes(t *testing.T) {
	clock := NewSimClock()
	tr := NewTracer(clock)
	attrs := []Attr{
		A("i", -300), A("i64", int64(math.MinInt64)), A("f", math.Copysign(0, -1)), A("f2", 1e300), A("s", "dynamic"),
		A("t", true), A("b", false), A("nil", nil), A("u", uint64(math.MaxUint64)), A("list", []int{1, 2}),
		A("nan", math.NaN()),
	}
	want := []Attr{
		A("i", -300), A("i64", int64(math.MinInt64)), A("f", math.Copysign(0, -1)), A("f2", 1e300), A("s", "dynamic"),
		A("t", true), A("b", false), A("nil", nil), A("u", json.RawMessage("18446744073709551615")),
		A("list", json.RawMessage("[1,2]")), A("nan", math.NaN()),
	}
	clock.Set(-time.Hour)
	tr.Event("first")
	clock.Set(3 * time.Hour)
	tr.Event("typed", attrs...)
	parent := NewTracer(nil)
	parent.Event("p")
	parent.Merge(tr)
	backlog, sub := tr.Subscribe(1)
	sub.Close()
	for name, evs := range map[string][]Event{"Events": tr.Events(), "backlog": backlog, "merged": parent.Events()[1:]} {
		if len(evs) != 2 || evs[0].T != -time.Hour || evs[1].T != 3*time.Hour || evs[1].Name != "typed" {
			t.Fatalf("%s: %+v", name, evs)
		}
		got := evs[1].Attrs
		if len(got) != len(want) {
			t.Fatalf("%s: %d attrs, want %d", name, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			same := reflect.TypeOf(g.Value) == reflect.TypeOf(w.Value) && fmt.Sprintf("%#v", g.Value) == fmt.Sprintf("%#v", w.Value)
			if f, ok := w.Value.(float64); ok {
				gf, _ := g.Value.(float64)
				same = same && math.Float64bits(gf) == math.Float64bits(f)
			}
			if g.Key != w.Key || !same {
				t.Errorf("%s: attr %d = %s:%#v (%T), want %s:%#v (%T)", name, i, g.Key, g.Value, g.Value, w.Key, w.Value, w.Value)
			}
		}
	}
	trErr, parentErr := tr.JSONL().Err(), parent.JSONL().Err()
	if trErr == nil || !strings.Contains(trErr.Error(), "event 2") || parentErr == nil || !strings.Contains(parentErr.Error(), "event 3") {
		t.Fatalf("render errors: tracer %v, merged parent %v; want the NaN's event on each", trErr, parentErr)
	}
}
