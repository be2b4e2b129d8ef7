package hist

import (
	"bytes"
	"encoding/binary"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/container"
)

// A series holds its samples encoded, in blocks of up to blockSize,
// as Gorilla does (Pelkonen et al., VLDB 2015): a metric repeats its
// value and its cadence from round to round (§2: SNR is stable for
// months), so most samples cost two bytes instead of sixteen. Within a
// block each sample is
//
//	varint  T: the first sample's T, the second's T − the first's, and
//	        from then on the change in that delta (delta-of-delta)
//	word    V's bits XOR the previous V's (0 for the first), as the
//	        container XOR word flight frames store their fields in
//	        (container.AppendXOR): the byte 0 when they are equal
//
// Signed differences wrap, so any sequence of timestamps round-trips,
// in order or not. Blocks are sealed at blockSize samples and copied
// to their exact size; retention drops whole blocks once every sample
// in them has aged out, and skips the aged-out head of the oldest.

// blockSize is the samples per sealed block.
const blockSize = 128

// blocks is one bucket's retained samples.
type blocks struct {
	sealed [][]byte // oldest first, blockSize samples each
	open   []byte   // the block being appended to
	n      int      // samples in open
	// skip is how many of the oldest block's samples have aged out;
	// kept is how many samples are retained.
	skip, kept int
	// The open block's encoder state: the last T, the last delta and
	// the last V's bits.
	lastT, lastDelta time.Duration
	lastV            uint64
}

// append encodes s at the end of the open block, sealing it when full.
func (b *blocks) append(s obs.Sample) {
	switch b.n {
	case 0:
		b.open = binary.AppendVarint(b.open, int64(s.T))
		b.lastDelta, b.lastV = 0, 0
	default:
		delta := s.T - b.lastT
		b.open = binary.AppendVarint(b.open, int64(delta-b.lastDelta))
		b.lastDelta = delta
	}
	b.lastT = s.T
	v := math.Float64bits(s.V)
	b.open = container.AppendXOR(b.open, b.lastV^v)
	b.lastV = v
	b.n++
	b.kept++
	if b.n == blockSize {
		b.sealed = append(b.sealed, bytes.Clone(b.open))
		b.open, b.n = b.open[:0], 0
	}
}

// drop discards the oldest retained sample.
func (b *blocks) drop() {
	b.kept--
	b.skip++
	if len(b.sealed) > 0 && b.skip == blockSize {
		b.sealed[0] = nil
		b.sealed = b.sealed[1:]
		b.skip = 0
	}
}

// appendRaw appends the retained samples to dst, oldest first.
func (b *blocks) appendRaw(dst []obs.Sample) []obs.Sample {
	skip := b.skip
	for _, blk := range b.sealed {
		dst = decodeBlock(dst, blk, blockSize, skip)
		skip = 0
	}
	return decodeBlock(dst, b.open, b.n, skip)
}

// decodeBlock appends a block's n samples but its first skip to dst.
func decodeBlock(dst []obs.Sample, blk []byte, n, skip int) []obs.Sample {
	c := container.NewCursor(blk)
	var t, delta time.Duration
	var v uint64
	for i := 0; i < n; i++ {
		if d := time.Duration(c.Varint()); i == 0 {
			t = d
		} else {
			delta += d
			t += delta
		}
		v ^= c.XOR()
		if i >= skip {
			dst = append(dst, obs.Sample{T: t, V: math.Float64frombits(v)})
		}
	}
	return dst
}
