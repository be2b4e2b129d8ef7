package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// populatedRegistry builds a registry exercising every metric kind,
// awkward float values, and hostile label values.
func populatedRegistry() *Registry {
	r := NewRegistry()
	r.Counter("demo_total", "a counter").Add(3)
	r.Counter("demo_total", "a counter", L("kind", `quo"te`)).Add(0.1 + 0.2) // 0.30000000000000004
	r.Gauge("demo_gauge", "a gauge", L("link", `back\slash`)).Set(-12.75)
	r.Gauge("demo_gauge", "a gauge", L("link", "sëattle→dênver")).Set(1e-17)
	h := r.Histogram("demo_work", "a histogram", []float64{1, 10, 100}, L("policy", "dynamic"))
	for _, v := range []float64{0.5, 5, 5, 50, 500} {
		h.Observe(v)
	}
	return r
}

func TestRegistryExportRestoreByteIdentical(t *testing.T) {
	orig := populatedRegistry()
	dump := orig.Export()

	// Through JSON, as the flight-log trailer stores it.
	raw, err := json.Marshal(dump)
	if err != nil {
		t.Fatalf("marshal dump: %v", err)
	}
	var decoded RegistryDump
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("unmarshal dump: %v", err)
	}
	restored := decoded.Restore()

	var a, b bytes.Buffer
	if err := orig.WritePrometheus(&a); err != nil {
		t.Fatalf("write original: %v", err)
	}
	if err := restored.WritePrometheus(&b); err != nil {
		t.Fatalf("write restored: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("restored exposition differs:\n--- original ---\n%s\n--- restored ---\n%s", a.String(), b.String())
	}
	if len(a.Bytes()) == 0 {
		t.Fatal("exposition unexpectedly empty")
	}

	if got, want := restored.Totals(), orig.Totals(); !reflect.DeepEqual(got, want) {
		t.Fatalf("totals diverge after restore:\n got %v\nwant %v", got, want)
	}
}

func TestRegistryExportNil(t *testing.T) {
	var r *Registry
	dump := r.Export()
	if len(dump.Families) != 0 {
		t.Fatalf("nil registry exported %d families", len(dump.Families))
	}
	restored := dump.Restore()
	var buf bytes.Buffer
	if err := restored.WritePrometheus(&buf); err != nil {
		t.Fatalf("write restored-empty: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty restore rendered %q", buf.String())
	}
}

func TestHash64Canonicalization(t *testing.T) {
	digest := func(fill func(h *Hash64)) uint64 {
		h := NewHash64()
		fill(h)
		return h.Sum64()
	}

	if digest(func(h *Hash64) { h.WriteFloat64(0) }) != digest(func(h *Hash64) { h.WriteFloat64(math.Copysign(0, -1)) }) {
		t.Error("0 and -0 must hash identically")
	}
	nanA := math.NaN()
	nanB := math.Float64frombits(math.Float64bits(math.NaN()) | 0xbeef)
	if digest(func(h *Hash64) { h.WriteFloat64(nanA) }) != digest(func(h *Hash64) { h.WriteFloat64(nanB) }) {
		t.Error("NaN payloads must collapse to one hash")
	}
	if digest(func(h *Hash64) { h.WriteFloat64(1.5) }) == digest(func(h *Hash64) { h.WriteFloat64(2.5) }) {
		t.Error("distinct floats should hash differently")
	}
	if digest(func(h *Hash64) { h.WriteString("ab"); h.WriteString("c") }) ==
		digest(func(h *Hash64) { h.WriteString("a"); h.WriteString("bc") }) {
		t.Error("length prefixing must keep string boundaries")
	}
	if digest(func(h *Hash64) { h.WriteBool(true) }) == digest(func(h *Hash64) { h.WriteBool(false) }) {
		t.Error("bools must hash differently")
	}
	if digest(func(h *Hash64) { h.WriteInt(-1) }) == digest(func(h *Hash64) { h.WriteInt(1) }) {
		t.Error("sign must reach the digest")
	}

	// Pin the empty digest to the FNV-64a offset basis so the format
	// is stable across refactors (logs hash-checked by older replays).
	if got := NewHash64().Sum64(); got != 14695981039346656037 {
		t.Errorf("empty digest = %d, want FNV-64a offset basis", got)
	}
}
