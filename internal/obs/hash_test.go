package obs

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

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
	if digest(func(h *Hash64) { h.WriteInt(-1) }) == digest(func(h *Hash64) { h.WriteInt(1) }) {
		t.Error("sign must reach the digest")
	}

	// Pin the empty digest to the FNV-64a offset basis so the format
	// is stable across refactors (logs hash-checked by older replays).
	if got := NewHash64().Sum64(); got != 14695981039346656037 {
		t.Errorf("empty digest = %d, want FNV-64a offset basis", got)
	}
}

// TestHash64IsFNV64a holds the writer to the standard library's FNV-64a
// over the canonical bytes: each integer as 8 little-endian bytes, each
// string as its length so encoded and then its bytes.
func TestHash64IsFNV64a(t *testing.T) {
	h, ref := NewHash64(), fnv.New64a()
	var buf [8]byte
	for _, v := range []uint64{0, 1, 0xff, 0x0123456789abcdef, math.MaxUint64, math.Float64bits(-2.5)} {
		h.WriteUint64(v)
		binary.LittleEndian.PutUint64(buf[:], v)
		ref.Write(buf[:])
		if h.Sum64() != ref.Sum64() {
			t.Fatalf("after WriteUint64(%#x): %#x, FNV-64a %#x", v, h.Sum64(), ref.Sum64())
		}
	}
	for _, s := range []string{"", "a", "dynamic", "gen2\x00\xff"} {
		h.WriteString(s)
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		ref.Write(buf[:])
		ref.Write([]byte(s))
		if h.Sum64() != ref.Sum64() {
			t.Fatalf("after WriteString(%q): %#x, FNV-64a %#x", s, h.Sum64(), ref.Sum64())
		}
	}
}
