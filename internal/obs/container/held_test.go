package container

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestXORRoundTrip: zero is the one byte 0, and a word of every
// (low, n) trim is its length byte low<<4|n and n kept bytes, zeros
// inside them included, which the cursor reads back in sequence.
func TestXORRoundTrip(t *testing.T) {
	var words []uint64
	for low := 0; low < 8; low++ {
		for n := 1; low+n <= 8; n++ {
			// Both end bytes set; the inside all ones, then all zeros.
			ends := uint64(0x81)<<(8*(n-1)) | 0x01
			if n == 1 {
				ends = 0x81
			}
			full := ends | (^uint64(0)>>(64-8*n))&^0xff
			for _, x := range []uint64{ends << (8 * low), full << (8 * low)} {
				b := AppendXOR(nil, x)
				if len(b) != 1+n || b[0] != byte(low<<4|n) {
					t.Fatalf("AppendXOR(%#x) = % x, want length byte %#02x and %d kept bytes", x, b, low<<4|n, n)
				}
				words = append(words, x)
			}
		}
	}
	words = append(words, 0, math.Float64bits(1.5), math.Float64bits(-0.0), 0)
	if b := AppendXOR(nil, 0); !bytes.Equal(b, []byte{0}) {
		t.Fatalf("AppendXOR(0) = % x, want 00", b)
	}
	var b []byte
	for _, x := range words {
		b = AppendXOR(b, x)
	}
	c := NewCursor(b)
	for i, want := range words {
		if got := c.XOR(); got != want || c.Err() != nil {
			t.Fatalf("word %d: read %#x, wrote %#x (err %v)", i, got, want, c.Err())
		}
	}
	if c.Len() != 0 {
		t.Fatalf("%d bytes left after the last word", c.Len())
	}
}

// TestXORRejects: a length byte that keeps no bytes or runs past the
// eighth byte, kept bytes with a zero end, and kept bytes cut short are
// each the cursor's failure, after which every read is zero.
func TestXORRejects(t *testing.T) {
	for name, tc := range map[string]struct {
		b    []byte
		want string
	}{
		"length byte keeps none": {[]byte{0x30, 7}, "XOR length byte 0x30 at offset 0"},
		"length byte past 8":     {[]byte{0x45, 1, 2, 3, 4, 5}, "XOR length byte 0x45 at offset 0"},
		"length byte of 9 bytes": {[]byte{0x09, 1, 2, 3, 4, 5, 6, 7, 8, 9}, "XOR length byte 0x09"},
		"XOR not trimmed":        {[]byte{0x02, 7, 0}, "XOR 0700 at offset 1 is not trimmed"},
		"zero low byte kept":     {[]byte{0x12, 0, 7}, "XOR 0007 at offset 1 is not trimmed"},
		"kept bytes cut short":   {[]byte{0x02, 7}, "truncated field at offset 1"},
		"no length byte":         {nil, "truncated field at offset 0"},
	} {
		c := NewCursor(tc.b)
		if x := c.XOR(); x != 0 || c.Err() == nil || !strings.Contains(c.Err().Error(), tc.want) {
			t.Errorf("%s: read %#x, err = %v, want %q", name, x, c.Err(), tc.want)
			continue
		}
		first := c.Err()
		if c.Byte() != 0 || c.XOR() != 0 || c.Uvarint() != 0 || c.Err() != first {
			t.Errorf("%s: reads after the failure must return zero and keep it, got %v", name, c.Err())
		}
	}
}

// record is the i-th test record: sizes from one byte to past a full
// chunk, each byte naming its record.
func record(i int) []byte {
	size := 1 + i*37%900
	if i%97 == 50 {
		size = fullChunk + 1 + i
	}
	return bytes.Repeat([]byte{byte(i)}, size)
}

// TestArenaSnapshotStaysValid: a reader snapshots the arena under the
// writer's lock and reads it without, while the writer appends past it
// (run it under -race); each snapshot is the records appended before
// it, in order, Split cuts it into them, and it still is once the
// writer has finished.
func TestArenaSnapshotStaysValid(t *testing.T) {
	const records = 400
	var (
		mu    sync.Mutex
		a     Arena
		count int
	)
	type snap struct {
		chunks [][]byte
		n      int
		bytes  []byte
	}
	var snaps []snap
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < records; i++ {
			rec := record(i)
			mu.Lock()
			a.Append(rec)
			count++
			mu.Unlock()
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		mu.Lock()
		s := snap{chunks: a.Chunks(), n: count}
		mu.Unlock()
		if len(snaps) < 64 && (len(snaps) == 0 || snaps[len(snaps)-1].n != s.n) {
			s.bytes = bytes.Join(s.chunks, nil)
			snaps = append(snaps, s)
		}
	}
	var sizes []uint32
	for i := 0; i < records; i++ {
		sizes = append(sizes, uint32(len(record(i))))
	}
	for _, s := range snaps {
		var want []byte
		for i := 0; i < s.n; i++ {
			want = append(want, record(i)...)
		}
		i := 0
		if err := Split(s.chunks, sizes[:s.n], func(rec []byte) error {
			if !bytes.Equal(rec, record(i)) {
				t.Fatalf("snapshot after %d records: Split's record %d is %d bytes of %d, want record %d", s.n, i, len(rec), rec[0], i)
			}
			i++
			return nil
		}); err != nil || i != s.n {
			t.Fatalf("snapshot after %d records: Split gave %d, err %v", s.n, i, err)
		}
		if !bytes.Equal(s.bytes, want) {
			t.Fatalf("snapshot after %d records read %d bytes, want their %d", s.n, len(s.bytes), len(want))
		}
		if !bytes.Equal(bytes.Join(s.chunks, nil), s.bytes) {
			t.Fatalf("snapshot after %d records changed as the writer appended", s.n)
		}
	}
}

// TestArenaChunks: chunks double from 1 KiB to 32 KiB, a record never
// spans two, and one larger than 32 KiB gets a chunk of exactly its
// size, after which appends go on in a new chunk.
func TestArenaChunks(t *testing.T) {
	var a Arena
	rec := bytes.Repeat([]byte{1}, 300)
	for i := 0; i < 300; i++ {
		a.Append(rec)
	}
	big := bytes.Repeat([]byte{2}, fullChunk+5)
	a.Append(big)
	a.Append(rec)
	chunks := a.Chunks()
	var caps []int
	for _, c := range chunks {
		caps = append(caps, cap(c))
		if len(c)%len(rec) != 0 && len(c) != len(big) {
			t.Fatalf("a chunk of %d bytes holds part of a record", len(c))
		}
	}
	want := []int{1 << 10, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 32 << 10, len(big), 32 << 10}
	if len(caps) != len(want) {
		t.Fatalf("chunk capacities %v, want %v", caps, want)
	}
	for i := range want {
		if caps[i] != want[i] {
			t.Fatalf("chunk capacities %v, want %v", caps, want)
		}
	}
	if own := chunks[len(chunks)-2]; !bytes.Equal(own, big) {
		t.Fatal("the oversize record does not own its chunk")
	}
	if last := chunks[len(chunks)-1]; len(last) != len(rec) {
		t.Fatalf("the record after the oversize one is in a chunk of %d bytes", len(last))
	}
	// Split stops at fn's first error.
	calls, stop := 0, errors.New("stop")
	if err := Split(chunks, []uint32{300, 300, 300}, func([]byte) error { calls++; return stop }); err != stop || calls != 1 {
		t.Fatalf("Split after an error: %d calls, err %v", calls, err)
	}
}
