package wan

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// continentalDigest is an FNV-64a hash of everything Continental
// builds: every edge (From, To and the bits of its Weight) in ID order,
// FiberOf, NumFibers and the bits of NodeWeights.
func continentalDigest(n *Network) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, e := range n.G.Edges() {
		put(uint64(e.From))
		put(uint64(e.To))
		put(math.Float64bits(e.Weight))
	}
	for _, f := range n.FiberOf {
		put(uint64(f))
	}
	put(uint64(n.NumFibers))
	for _, w := range n.NodeWeights {
		put(math.Float64bits(w))
	}
	return h.Sum64()
}

// TestContinentalDigest pins the generated backbone byte for byte: the
// digests were recorded before the generator's pair bookkeeping moved
// from a map to adjacency lists, and a change to the draw order, the
// Prim order or the chord order moves them.
func TestContinentalDigest(t *testing.T) {
	cases := []struct {
		nodes int
		want  uint64
	}{
		{16, 0x91bd5d47398b99d3},
		{200, 0xf0df333bb24c2e7b},
		{1000, 0xc63ce100b30b1b20},
		{4096, 0x45d2bbf1e2f69424},
	}
	for _, c := range cases {
		if c.nodes > 1000 && testing.Short() {
			continue
		}
		net, err := Continental(c.nodes, 8, 2017)
		if err != nil {
			t.Fatal(err)
		}
		if got := continentalDigest(net); got != c.want {
			t.Errorf("continental:%d digest %#016x, want %#016x", c.nodes, got, c.want)
		}
	}
}
