package obs

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"time"
)

// This file is the tracer's storage: each event encoded once, at
// Event, into an append-only log of records, and decoded by every
// reader. A record is
//
//	uvarint  name (string-table index)
//	varint   T − the previous record's T (the first's base is 0)
//	uvarint  attr count
//	attr     one per Attr, in recording order: uvarint key
//	         (string-table index), a type tag, the typed value
//
// Values are stored by type: int and int64 as varints, float64 as its
// bits with the zero low bytes trimmed (a count byte, then the kept
// bytes high first), string as a string-table index, bool and nil as
// the tag alone. A value of any other type is stored as its
// encoding/json bytes (uvarint length, bytes) and spliced back
// verbatim. Names, keys and string values repeat from event to event,
// so each is held once, in the tracer's string table: a wan.order
// event is ~35 bytes of record against ~200 bytes of JSONL. Seq is not
// stored: it is the record's position.
//
// Records are packed into chunks that are allocated at their full size
// and never reallocated, so a view of the log (the chunk and table
// slices as they are) stays valid without the lock while Event appends
// past it.

// Attr value type tags.
const (
	tagInt = iota + 1
	tagInt64
	tagFloat
	tagString
	tagTrue
	tagFalse
	tagNull
	// tagRaw holds the value's encoding/json bytes.
	tagRaw
	// tagBad is a value encoding/json refused; it holds the error.
	tagBad
)

// Chunk sizes: a tracer's chunks start small (fan-out children record
// a handful of events) and double up to maxChunk.
const (
	minChunk = 1 << 10
	maxChunk = 32 << 10
)

// field is one attr as the log stores it: its key, type tag and typed
// value.
type field struct {
	key string
	tag byte
	// num is an int or int64 value's two's-complement bits, or a
	// float64's IEEE-754 bits.
	num uint64
	// str is a string value, or a tagBad value's error.
	str string
	// raw is a tagRaw value's encoding/json bytes.
	raw []byte
}

// fieldOf types one attr, marshaling a value of any other type than
// the stored ones with encoding/json.
func fieldOf(a Attr) field {
	f := field{key: a.Key}
	switch v := a.Value.(type) {
	case int:
		f.tag, f.num = tagInt, uint64(v)
	case int64:
		f.tag, f.num = tagInt64, uint64(v)
	case float64:
		f.tag, f.num = tagFloat, math.Float64bits(v)
	case string:
		f.tag, f.str = tagString, v
	case bool:
		f.tag = tagFalse
		if v {
			f.tag = tagTrue
		}
	case nil:
		f.tag = tagNull
	default:
		raw, err := json.Marshal(v)
		if err != nil {
			f.tag, f.str = tagBad, err.Error()
			break
		}
		f.tag, f.raw = tagRaw, raw
	}
	return f
}

// check reports why f cannot render as JSON, if it cannot.
func (f *field) check() error {
	switch f.tag {
	case tagFloat:
		if v := math.Float64frombits(f.num); math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(v, 'g', -1, 64))
		}
	case tagBad:
		return errors.New(f.str)
	}
	return nil
}

// renderErr is why an event with these attrs cannot render, if it
// cannot: the first value that does not render and that no later attr
// of the same key replaces.
func renderErr(fields []field) error {
	for i := range fields {
		replaced := false
		for j := i + 1; j < len(fields) && !replaced; j++ {
			replaced = fields[j].key == fields[i].key
		}
		if err := fields[i].check(); err != nil && !replaced {
			return err
		}
	}
	return nil
}

// badValue is a tagBad value decoded: it fails to marshal with the
// error the recorded value failed with.
type badValue struct{ err string }

func (b badValue) MarshalJSON() ([]byte, error) { return nil, errors.New(b.err) }

// value decodes f's value to the type it was recorded with.
func (f *field) value() any {
	switch f.tag {
	case tagInt:
		return int(f.num)
	case tagInt64:
		return int64(f.num)
	case tagFloat:
		return math.Float64frombits(f.num)
	case tagString:
		return f.str
	case tagTrue:
		return true
	case tagFalse:
		return false
	case tagRaw:
		return json.RawMessage(f.raw)
	case tagBad:
		return badValue{f.str}
	}
	return nil
}

// attrsOf decodes fields into a fresh Attr slice.
func attrsOf(fields []field) []Attr {
	if len(fields) == 0 {
		return nil
	}
	attrs := make([]Attr, len(fields))
	for i := range fields {
		attrs[i] = Attr{Key: fields[i].key, Value: fields[i].value()}
	}
	return attrs
}

// eventLog is a tracer's records. All access is under the tracer lock;
// a view is what readers take away from it.
type eventLog struct {
	chunks [][]byte
	held   int           // the chunks' total capacity
	n      int           // records
	lastT  time.Duration // the last record's T, the next one's base
	strs   []string      // the string table, in first-use order
	index  map[string]uint64
	rec    []byte // add's scratch
}

// intern returns s's string-table index, adding it on first use.
func (l *eventLog) intern(s string) uint64 {
	if i, ok := l.index[s]; ok {
		return i
	}
	if l.index == nil {
		l.index = make(map[string]uint64)
	}
	i := uint64(len(l.strs))
	l.strs = append(l.strs, s)
	l.index[s] = i
	return i
}

// add encodes one event and appends it to the last chunk, or to a new
// one when it does not fit: a record never spans chunks.
func (l *eventLog) add(name string, at time.Duration, fields []field) {
	b := binary.AppendUvarint(l.rec[:0], l.intern(name))
	b = binary.AppendVarint(b, int64(at-l.lastT))
	b = binary.AppendUvarint(b, uint64(len(fields)))
	for i := range fields {
		f := &fields[i]
		b = binary.AppendUvarint(b, l.intern(f.key))
		b = append(b, f.tag)
		switch f.tag {
		case tagInt, tagInt64:
			b = binary.AppendVarint(b, int64(f.num))
		case tagFloat:
			n := 8 - bits.TrailingZeros64(f.num)/8
			b = append(b, byte(n))
			for k := 0; k < n; k++ {
				b = append(b, byte(f.num>>(56-8*k)))
			}
		case tagString, tagBad:
			b = binary.AppendUvarint(b, l.intern(f.str))
		case tagRaw:
			b = binary.AppendUvarint(b, uint64(len(f.raw)))
			b = append(b, f.raw...)
		}
	}
	l.rec = b
	last := len(l.chunks) - 1
	if last < 0 || cap(l.chunks[last])-len(l.chunks[last]) < len(b) {
		size := max(min(max(l.held, minChunk), maxChunk), len(b))
		l.chunks = append(l.chunks, make([]byte, 0, size))
		l.held += size
		last++
	}
	l.chunks[last] = append(l.chunks[last], b...)
	l.n++
	l.lastT = at
}

// eventView is a log as it stood when view was called. Everything it
// references is append-only, so it is read without the lock.
type eventView struct {
	chunks [][]byte
	strs   []string
	n      int
}

// view snapshots the log. Callers hold the tracer lock.
func (l *eventLog) view() eventView {
	return eventView{chunks: append([][]byte(nil), l.chunks...), strs: l.strs[:len(l.strs):len(l.strs)], n: l.n}
}

// each decodes the view's records in order. fields is scratch that the
// next record overwrites.
func (v eventView) each(fn func(name string, at time.Duration, fields []field)) {
	var (
		fields []field
		at     time.Duration
	)
	left := v.n
	for _, chunk := range v.chunks {
		for b := chunk; len(b) > 0 && left > 0; left-- {
			var name string
			name, at, fields, b = v.decode(b, at, fields[:0])
			fn(name, at, fields)
		}
	}
}

// decode reads one record from the front of b, whose base time is
// prev, appending its attrs to fields; it returns the rest of b.
func (v eventView) decode(b []byte, prev time.Duration, fields []field) (string, time.Duration, []field, []byte) {
	uvarint := func() uint64 {
		x, n := binary.Uvarint(b)
		b = b[n:]
		return x
	}
	varint := func() int64 {
		x, n := binary.Varint(b)
		b = b[n:]
		return x
	}
	name := v.strs[uvarint()]
	at := prev + time.Duration(varint())
	for n := uvarint(); n > 0; n-- {
		f := field{key: v.strs[uvarint()], tag: b[0]}
		b = b[1:]
		switch f.tag {
		case tagInt, tagInt64:
			f.num = uint64(varint())
		case tagFloat:
			k := int(b[0])
			for i := 0; i < k; i++ {
				f.num |= uint64(b[1+i]) << (56 - 8*i)
			}
			b = b[1+k:]
		case tagString, tagBad:
			f.str = v.strs[uvarint()]
		case tagRaw:
			k := uvarint()
			f.raw, b = b[:k:k], b[k:]
		}
		fields = append(fields, f)
	}
	return name, at, fields, b
}

// events decodes the view into Events, numbered from 1.
func (v eventView) events() []Event {
	if v.n == 0 {
		return nil
	}
	out := make([]Event, 0, v.n)
	v.each(func(name string, at time.Duration, fields []field) {
		out = append(out, Event{Seq: len(out) + 1, T: at, Name: name, Attrs: attrsOf(fields)})
	})
	return out
}

// JSONL is a tracer's events as its JSONL artifact, rendered from the
// records each time it is written: the events recorded when
// Tracer.JSONL was called, one JSON object a line, in sequence order.
// The rendered bytes are never held.
type JSONL struct {
	v   eventView
	err error
	// size is the rendering's length once a write has measured it, -1
	// before.
	size int64
}

// JSONL returns the tracer's events so far as a JSONL rendering. A nil
// tracer renders nothing.
func (t *Tracer) JSONL() *JSONL {
	if t == nil {
		return &JSONL{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &JSONL{v: t.log.view(), err: t.err, size: -1}
}

// Err is the first event the rendering cannot hold, a value that does
// not render as JSON, found when it was recorded: WriteTo writes
// nothing when it is set.
func (j *JSONL) Err() error { return j.err }

// Size is the rendering's length in bytes: measured by the last
// complete WriteTo, or by rendering to nowhere.
func (j *JSONL) Size() (int64, error) {
	if j.size < 0 {
		if _, err := j.WriteTo(io.Discard); err != nil {
			return 0, err
		}
	}
	return j.size, nil
}

// jsonlFlush is how much rendered JSONL WriteTo buffers per write.
const jsonlFlush = 32 << 10

// WriteTo renders the events into one reused buffer, writing it to w
// each time it passes jsonlFlush bytes.
func (j *JSONL) WriteTo(w io.Writer) (int64, error) {
	if j.err != nil {
		return 0, j.err
	}
	var (
		buf     []byte
		written int64
		err     error
		seq     int
	)
	flush := func() {
		if err == nil && len(buf) > 0 {
			var n int
			n, err = w.Write(buf)
			written += int64(n)
		}
		buf = buf[:0]
	}
	j.v.each(func(name string, at time.Duration, fields []field) {
		seq++
		if err != nil {
			return
		}
		var rerr error
		if buf, rerr = appendEvent(buf, seq, at, name, fields); rerr != nil {
			// Unreachable when j.err is nil: Event checks each field.
			err = rerr
			return
		}
		buf = append(buf, '\n')
		if len(buf) >= jsonlFlush {
			flush()
		}
	})
	flush()
	if err == nil {
		j.size = written
	}
	return written, err
}

// WriteJSONL writes one JSON object per event, in sequence order,
// straight from the records. A trace holding an event that cannot
// render writes nothing and returns that event's error.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	_, err := t.JSONL().WriteTo(w)
	return err
}
