package obs

import "math"

// This file implements canonical FNV-64a hashing for simulation state.
// The flight recorder (obs/flight) hashes every per-round record so two
// runs can be bisected to the first diverging round and link; anything
// else that needs a deterministic digest of mixed scalar state should
// use the same writer so hashes stay comparable across tools.
//
// Canonical form: every value is folded in as little-endian fixed-width
// bytes; strings are length-prefixed so "ab","c" and "a","bc" never
// collide; floats are folded as IEEE-754 bits with the two zeros
// collapsed (0 == -0 numerically, and both print as "0" in every
// exposition) and all NaN payloads collapsed to one quiet pattern.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash64 accumulates an FNV-64a digest over canonically encoded values.
// The zero value is not ready to use; call NewHash64.
type Hash64 struct {
	sum uint64
}

// NewHash64 returns a Hash64 seeded with the FNV-64a offset basis.
func NewHash64() *Hash64 {
	return &Hash64{sum: fnvOffset64}
}

// WriteUint64 folds v in as 8 little-endian bytes, low byte first.
func (h *Hash64) WriteUint64(v uint64) {
	sum := h.sum
	for i := 0; i < 8; i++ {
		sum ^= v & 0xff
		sum *= fnvPrime64
		v >>= 8
	}
	h.sum = sum
}

// WriteInt folds v in as its two's-complement uint64 image.
func (h *Hash64) WriteInt(v int) {
	h.WriteUint64(uint64(int64(v)))
}

// WriteFloat64 folds f in as canonical IEEE-754 bits: -0 hashes as 0
// and every NaN hashes as one quiet NaN pattern.
func (h *Hash64) WriteFloat64(f float64) {
	if f == 0 {
		h.WriteUint64(0)
		return
	}
	if math.IsNaN(f) {
		h.WriteUint64(0x7ff8000000000001)
		return
	}
	h.WriteUint64(math.Float64bits(f))
}

// WriteString folds s in length-prefixed, so adjacent strings keep
// their boundaries in the digest.
func (h *Hash64) WriteString(s string) {
	h.WriteUint64(uint64(len(s)))
	sum := h.sum
	for i := 0; i < len(s); i++ {
		sum ^= uint64(s[i])
		sum *= fnvPrime64
	}
	h.sum = sum
}

// Sum64 returns the digest so far. The writer remains usable.
func (h *Hash64) Sum64() uint64 { return h.sum }
