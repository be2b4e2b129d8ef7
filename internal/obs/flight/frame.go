package flight

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/obs/container"
)

// This file is the frame codec and the streams Record encodes into. An
// 'F' section's payload is one frame:
//
//	uvarint  run index (WriteLog prefixes it; a stream does not hold it)
//	uvarint  policy length, then the policy
//	uvarint  round
//	f64 ×3   offered, shipped, capacity (Gbps)
//	uvarint  changes
//	u64      hash
//	byte     kind: kindKey (0) or kindDelta (1)
//	record   one per link of the run's table, in table order
//
// A link record is a mask byte, then the fields its bits name, in bit
// order. Bit i < 7 is the i-th double of the record (SNRdB,
// FeasibleGbps, CapacityGbps, FakeCapGbps, FakePenalty, FlowGbps,
// FakeFlowGbps), stored as the XOR of its bits with the base's, a
// nonzero container XOR word (container.AppendXOR: a length byte, then
// the kept bytes). Bit 7 is the verdict, stored as its byte; it is set
// only when the verdict differs from the base's. A field whose bit is
// clear equals the base's.
//
// A keyframe's base is all zeros; a delta's is the frame before it in
// the log, which must be of the same (run, policy) and an earlier
// round. A stream's first frame is a keyframe and every later one a
// delta, so the streams are written one after another, each in round
// order. This is Gorilla's XOR against the previous value (Pelkonen et
// al., VLDB 2015): the per-link state is stable from round to round
// (§2), so most fields XOR to zero and cost only their mask bit, and a
// changed double shares its sign, exponent and high mantissa bytes with
// the last one.

// Frame kinds.
const (
	kindKey   = 0
	kindDelta = 1
)

// linkFields is the number of doubles in a link record; the mask bit
// after theirs is the verdict's.
const (
	linkFields = 7
	verdictBit = 1 << linkFields
)

// stream is one (run, policy)'s frames as Record encoded them, held in
// a container.Arena, where bytes once written never move: WriteLog
// reads a snapshot of them while Record appends.
type stream struct {
	key streamKey
	// round is the last frame's round; prev is its link records, the
	// next frame's base (all zeros before the first: the keyframe's).
	round int
	prev  []LinkRecord
	// arena holds the frames; sizes is each one's length, in order.
	arena container.Arena
	sizes []uint32
}

// add encodes rec against the stream's last frame into scratch and
// appends it to the stream; it returns scratch for reuse.
func (s *stream) add(scratch []byte, rec *RoundRecord) []byte {
	kind := byte(kindDelta)
	if len(s.sizes) == 0 {
		kind = kindKey
	}
	frame := appendFrame(scratch, kind, s.prev, rec)
	s.arena.Append(frame)
	s.sizes = append(s.sizes, uint32(len(frame)))
	s.round = rec.Round
	copy(s.prev, rec.Links)
	return frame
}

// appendFrame appends rec's frame, without its run index, to b, its
// link records encoded against base.
func appendFrame(b []byte, kind byte, base []LinkRecord, rec *RoundRecord) []byte {
	b = binary.AppendUvarint(b, uint64(len(rec.Policy)))
	b = append(b, rec.Policy...)
	b = binary.AppendUvarint(b, uint64(rec.Round))
	b = appendF64(b, rec.OfferedGbps)
	b = appendF64(b, rec.ShippedGbps)
	b = appendF64(b, rec.CapacityGbps)
	b = binary.AppendUvarint(b, uint64(rec.Changes))
	b = binary.LittleEndian.AppendUint64(b, rec.Hash)
	b = append(b, kind)
	for i := range rec.Links {
		b = appendLink(b, &base[i], &rec.Links[i])
	}
	return b
}

func appendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// linkBits returns the bits of l's doubles in mask-bit order.
func linkBits(l *LinkRecord) [linkFields]uint64 {
	return [linkFields]uint64{
		math.Float64bits(l.SNRdB),
		math.Float64bits(l.FeasibleGbps),
		math.Float64bits(l.CapacityGbps),
		math.Float64bits(l.FakeCapGbps),
		math.Float64bits(l.FakePenalty),
		math.Float64bits(l.FlowGbps),
		math.Float64bits(l.FakeFlowGbps),
	}
}

// appendLink appends l's record, encoded against base, to b.
func appendLink(b []byte, base, l *LinkRecord) []byte {
	was, is := linkBits(base), linkBits(l)
	at := len(b)
	b = append(b, 0)
	var mask byte
	for i := range is {
		x := was[i] ^ is[i]
		if x == 0 {
			continue
		}
		mask |= 1 << i
		b = container.AppendXOR(b, x)
	}
	if l.Verdict != base.Verdict {
		mask |= verdictBit
		b = append(b, l.Verdict)
	}
	b[at] = mask
	return b
}

// decodeFrame checks one frame payload and returns the frame without
// its link records, and those records' bytes. runs resolves its run
// index; prev is the frame before it in the log (nil for the first), a
// delta's base. verdicts holds prev's link verdicts on entry and this
// frame's on return: they are all a link record's checks depend on.
// The frame gets its records once the whole log has checked (see
// Log.expand).
func decodeFrame(payload []byte, runs []Run, prev *RoundRecord, verdicts *[]uint8) (RoundRecord, []byte, error) {
	c := container.NewCursor(payload)
	var rec RoundRecord
	runIdx := c.Uvarint()
	policy := c.Bytes(c.Uvarint())
	rec.Round = int(c.Uvarint())
	rec.OfferedGbps = c.F64()
	rec.ShippedGbps = c.F64()
	rec.CapacityGbps = c.F64()
	rec.Changes = int(c.Uvarint())
	rec.Hash = c.U64()
	kind := c.Byte()
	if err := c.Err(); err != nil {
		return rec, nil, fmt.Errorf("frame: %w", err)
	}
	if runIdx >= uint64(len(runs)) {
		return rec, nil, fmt.Errorf("frame references run %d of %d", runIdx, len(runs))
	}
	run := &runs[runIdx]
	rec.Run = run.Name
	rec.Policy = string(policy)
	switch kind {
	case kindKey:
		if prev != nil && !(streamKey{prev.Run, prev.Policy}).before(streamKey{rec.Run, rec.Policy}) {
			return rec, nil, fmt.Errorf("keyframe of (run %q, policy %q) after a frame of (run %q, policy %q): streams are written once each, in order",
				rec.Run, rec.Policy, prev.Run, prev.Policy)
		}
	case kindDelta:
		switch {
		case prev == nil:
			return rec, nil, fmt.Errorf("delta frame (run %q, policy %q, round %d) has no base", rec.Run, rec.Policy, rec.Round)
		case prev.Run != rec.Run || prev.Policy != rec.Policy:
			return rec, nil, fmt.Errorf("delta frame (run %q, policy %q, round %d) on a base of (run %q, policy %q)",
				rec.Run, rec.Policy, rec.Round, prev.Run, prev.Policy)
		case rec.Round <= prev.Round:
			return rec, nil, fmt.Errorf("(run %q, policy %q) round %d after round %d", rec.Run, rec.Policy, rec.Round, prev.Round)
		}
	default:
		return rec, nil, fmt.Errorf("frame kind %d", kind)
	}
	// The run table's link count is untrusted too: a record is at least
	// its mask byte, so check the payload holds that many before
	// allocating them.
	links := payload[len(payload)-c.Len():]
	if len(links) < len(run.Links) {
		return rec, nil, fmt.Errorf("frame has %d bytes of link records, run table's %d links take at least %d",
			len(links), len(run.Links), len(run.Links))
	}
	if kind == kindKey {
		// A keyframe's base is all zeros.
		if cap(*verdicts) < len(run.Links) {
			*verdicts = make([]uint8, len(run.Links))
		}
		*verdicts = (*verdicts)[:len(run.Links)]
		clear(*verdicts)
	}
	for i, v := range *verdicts {
		d, err := readLink(c)
		if err == nil && d.mask&verdictBit != 0 {
			if d.verdict == v {
				err = fmt.Errorf("mask %#02x marks verdict %d changed from itself", d.mask, v)
			}
			v = d.verdict
		}
		if err != nil {
			return rec, nil, fmt.Errorf("frame (run %q, policy %q, round %d) link %d: %w", rec.Run, rec.Policy, rec.Round, i, err)
		}
		if int(v) >= len(run.Verdicts) {
			return rec, nil, fmt.Errorf("link %d verdict %d, run table names %d", i, v, len(run.Verdicts))
		}
		(*verdicts)[i] = v
	}
	if c.Len() != 0 {
		return rec, nil, fmt.Errorf("frame has %d bytes past the run table's %d links", c.Len(), len(run.Links))
	}
	return rec, links, nil
}

// linkDelta is one link record as read: its mask, the XOR of each
// double the mask names with the base's (zero for the others) and the
// verdict, if the mask names it.
type linkDelta struct {
	mask    byte
	xor     [linkFields]uint64
	verdict uint8
}

// readLink reads one link record, checking its XOR words (Cursor.XOR
// checks their length bytes and trimming); only the verdict's check
// needs the base.
func readLink(c *container.Cursor) (linkDelta, error) {
	var d linkDelta
	d.mask = c.Byte()
	for i := range d.xor {
		if d.mask&(1<<i) == 0 {
			continue
		}
		d.xor[i] = c.XOR()
		if err := c.Err(); err != nil {
			return d, fmt.Errorf("field %d: %w", i, err)
		}
		if d.xor[i] == 0 {
			return d, fmt.Errorf("field %d is marked changed by an XOR of zero", i)
		}
	}
	if d.mask&verdictBit != 0 {
		d.verdict = c.Byte()
	}
	return d, c.Err()
}

// apply sets l to base with d's changes; l may be base.
func (d *linkDelta) apply(base, l *LinkRecord) {
	v := linkBits(base)
	for i := range v {
		v[i] ^= d.xor[i]
	}
	if d.mask&verdictBit != 0 {
		l.Verdict = d.verdict
	} else {
		l.Verdict = base.Verdict
	}
	l.SNRdB = math.Float64frombits(v[0])
	l.FeasibleGbps = math.Float64frombits(v[1])
	l.CapacityGbps = math.Float64frombits(v[2])
	l.FakeCapGbps = math.Float64frombits(v[3])
	l.FakePenalty = math.Float64frombits(v[4])
	l.FlowGbps = math.Float64frombits(v[5])
	l.FakeFlowGbps = math.Float64frombits(v[6])
}
