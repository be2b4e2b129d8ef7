package container

import (
	"fmt"
	"math/bits"
	"slices"
)

// AppendXOR appends x, a double's bits XOR the value before it
// (Gorilla, Pelkonen et al., VLDB 2015), as one XOR word: the byte 0
// for zero, else a length byte (zero bytes trimmed from the low end << 4
// | bytes kept) and the kept bytes, low first, neither end zero.
func AppendXOR(dst []byte, x uint64) []byte {
	if x == 0 {
		return append(dst, 0)
	}
	low := bits.TrailingZeros64(x) / 8
	n := 8 - bits.LeadingZeros64(x)/8 - low
	dst = append(dst, byte(low<<4|n))
	for x >>= 8 * low; n > 0; n-- {
		dst = append(dst, byte(x))
		x >>= 8
	}
	return dst
}

// XOR reads one XOR word. A length byte that keeps no bytes or runs
// past the eighth, or kept bytes with a zero end (a word AppendXOR
// would have trimmed), is a read failure like running off the end.
func (c *Cursor) XOR() uint64 {
	b := c.b[c.off:]
	if len(b) == 0 || c.err != nil {
		return uint64(c.Byte()) // fails, or keeps the first failure
	}
	low, n := int(b[0]>>4), int(b[0]&0x0f)
	switch {
	case b[0] == 0:
		c.off++ // a value that did not move, the common case
	case n == 0 || low+n > 8:
		c.err = fmt.Errorf("XOR length byte %#02x at offset %d", b[0], c.off)
	case len(b) <= n:
		c.off++
		c.Bytes(uint64(n)) // fails: the kept bytes are cut short
	case b[1] == 0 || b[n] == 0:
		c.err = fmt.Errorf("XOR %x at offset %d is not trimmed", b[1:1+n], c.off+1)
	default:
		var x uint64
		for j := n; j > 0; j-- {
			x = x<<8 | uint64(b[j])
		}
		c.off += 1 + n
		return x << (8 * low)
	}
	return 0
}

// Arena chunks start small (a fan-out child's tracer holds a handful
// of records) and double up to fullChunk.
const (
	firstChunk = 1 << 10
	fullChunk  = 32 << 10
)

// Arena is an append-only store of records packed into chunks. A chunk
// is allocated at its full size and never reallocated, and a record
// never spans two (one larger than fullChunk gets a chunk of its own
// size), so bytes once appended never move: a snapshot (Chunks) taken
// under the caller's lock stays valid without it while Append
// continues. The zero Arena is empty.
type Arena struct {
	chunks [][]byte
	held   int // the chunks' total capacity
}

// Append copies rec to the end of the arena.
func (a *Arena) Append(rec []byte) {
	last := len(a.chunks) - 1
	if last < 0 || cap(a.chunks[last])-len(a.chunks[last]) < len(rec) {
		size := max(min(max(a.held, firstChunk), fullChunk), len(rec))
		a.chunks = append(a.chunks, make([]byte, 0, size))
		a.held += size
		last++
	}
	a.chunks[last] = append(a.chunks[last], rec...)
}

// Chunks snapshots the arena: its chunks as they are now, records in
// append order, each chunk's length ending at its last whole record.
func (a *Arena) Chunks() [][]byte { return slices.Clone(a.chunks) }

// Split calls fn with each record of chunks (an Arena's snapshot) in
// order, given the records' sizes, none zero, and stops at the first
// error fn returns. A record that does not fit in what is left of a
// chunk is the next chunk's first.
func Split(chunks [][]byte, sizes []uint32, fn func(rec []byte) error) error {
	off := 0
	for _, size := range sizes {
		if off+int(size) > len(chunks[0]) {
			chunks, off = chunks[1:], 0
		}
		if err := fn(chunks[0][off : off+int(size)]); err != nil {
			return err
		}
		off += int(size)
	}
	return nil
}
