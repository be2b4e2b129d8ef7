// Package container implements the one on-disk framing every binary
// run artifact shares: a magic string, then tagged sections, each a
// one-byte tag + uvarint payload length + payload, enveloped by one
// header first and one trailer last.
//
//	magic    e.g. "RWCFLT4\n" (flight log), "RWCHIST1\n" (history)
//	'H'      header section: exactly one, first
//	section  tag byte | uvarint len | len payload bytes
//	...      the format's body sections (any tag but 'H' and 'T')
//	'T'      trailer section: exactly one, last; a missing one is how
//	         a truncated write is detected
//
// The container owns the envelope (ReadEnvelope enforces it) and knows
// nothing about what a body tag means: each format owns its body tags,
// its payload encodings and what its header and trailer hold, and
// rejects a body tag it does not know — the version in the magic is the
// compatibility gate. What the formats share — and what is hardened
// here, once — is reading lengths someone else wrote.
package container

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
)

// The envelope's two tags.
const (
	HeaderTag  = 'H'
	TrailerTag = 'T'
)

// MaxSectionLen caps one section's payload (256 MiB), so a corrupt
// length prefix is rejected before anything is read.
const MaxSectionLen = 1 << 28

// bufSize is the I/O buffer on both sides: callers hand over bare
// *os.File handles, and frames are a few hundred bytes each.
const bufSize = 64 << 10

// Writer emits one container. Flush must be called (and checked) after
// the last section.
type Writer struct{ bw *bufio.Writer }

// NewWriter starts a container on w with its magic. Nothing reaches w
// before the buffer fills or Flush, which is where a failing w shows.
func NewWriter(w io.Writer, magic string) *Writer {
	bw := bufio.NewWriterSize(w, bufSize)
	bw.WriteString(magic) // buffered: cannot fail here
	return &Writer{bw: bw}
}

// Section writes one tagged section whose payload is the parts in
// order, so a payload assembled from large pieces is never copied into
// one slice first.
func (w *Writer) Section(tag byte, parts ...[]byte) error {
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	if err := w.sectionHeader(tag, int64(size)); err != nil {
		return err
	}
	for _, p := range parts {
		if _, err := w.bw.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// SectionFunc writes one tagged section of size bytes that write
// produces, for a payload that is rendered as it is written and never
// held: its length goes out before its bytes. A write of any other
// length is an error, and the container is then corrupt.
func (w *Writer) SectionFunc(tag byte, size int64, write func(io.Writer) error) error {
	if err := w.sectionHeader(tag, size); err != nil {
		return err
	}
	cw := &countingWriter{w: w.bw}
	if err := write(cw); err != nil {
		return err
	}
	if cw.n != size {
		return fmt.Errorf("section %q: wrote %d bytes, declared %d", tag, cw.n, size)
	}
	return nil
}

// sectionHeader writes a section's tag and payload length.
func (w *Writer) sectionHeader(tag byte, size int64) error {
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = tag
	n := binary.PutUvarint(hdr[1:], uint64(size))
	_, err := w.bw.Write(hdr[:1+n])
	return err
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// JSON writes one section whose payload is v's JSON encoding.
func (w *Writer) JSON(tag byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return w.Section(tag, payload)
}

// Flush writes out everything buffered.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Reader walks one container's sections.
type Reader struct {
	br  *bufio.Reader
	buf []byte
}

// Open checks the magic and returns a Reader positioned at the first
// section.
func Open(r io.Reader, magic string) (*Reader, error) {
	br := bufio.NewReaderSize(r, bufSize)
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, fmt.Errorf("reading magic: %w", err)
	}
	if string(got) != magic {
		return nil, fmt.Errorf("bad magic %q (want %q)", got, magic)
	}
	return &Reader{br: br}, nil
}

// Next returns the next section, or io.EOF after the last one. The
// payload aliases a buffer the next call overwrites: decode it, or copy
// what must outlive the call.
//
// The length prefix is untrusted: it is checked against MaxSectionLen,
// and the buffer grows only as payload bytes actually arrive (doubling
// from bufSize), so a short file that claims a huge section fails with
// io.ErrUnexpectedEOF having allocated about twice its own size.
func (r *Reader) Next() (tag byte, payload []byte, err error) {
	tag, err = r.br.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, nil, fmt.Errorf("section %q length: %w", tag, noEOF(err))
	}
	if n > MaxSectionLen {
		return 0, nil, fmt.Errorf("section %q of %d bytes exceeds the %d-byte limit", tag, n, MaxSectionLen)
	}
	buf := r.buf[:0]
	for want := int(n); len(buf) < want; {
		step := min(want-len(buf), max(len(buf), bufSize))
		buf = slices.Grow(buf, step)
		got, err := io.ReadFull(r.br, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+got]
		if err != nil {
			r.buf = buf
			return 0, nil, fmt.Errorf("section %q truncated at %d of %d bytes: %w", tag, len(buf), want, noEOF(err))
		}
	}
	r.buf = buf
	return tag, buf, nil
}

// ReadEnvelope checks the magic and reads one enveloped container: the
// header section, every body section (each handed to body, in order;
// the payload aliases a buffer the next section overwrites), then the
// trailer. It fails on a first section that is not the header, on a
// header or trailer anywhere else, on any section after the trailer,
// on EOF before the trailer (a truncated write) and on the first error
// body returns. The returned header and trailer are the caller's to
// keep.
func ReadEnvelope(r io.Reader, magic string, body func(tag byte, payload []byte) error) (header, trailer []byte, err error) {
	cr, err := Open(r, magic)
	if err != nil {
		return nil, nil, err
	}
	tag, payload, err := cr.Next()
	switch {
	case err == io.EOF:
		return nil, nil, fmt.Errorf("no header section (truncated write?)")
	case err != nil:
		return nil, nil, err
	case tag != HeaderTag:
		return nil, nil, fmt.Errorf("first section is %q, not the header", tag)
	}
	header = append([]byte(nil), payload...)
	for {
		tag, payload, err := cr.Next()
		switch {
		case err == io.EOF:
			return nil, nil, fmt.Errorf("no trailer section (truncated write?)")
		case err != nil:
			return nil, nil, err
		case tag == HeaderTag:
			return nil, nil, fmt.Errorf("second header section")
		case tag == TrailerTag:
			// payload stays valid unless another section is read over it,
			// which is an error.
			next, _, err := cr.Next()
			switch {
			case err == io.EOF:
				return header, payload, nil
			case err != nil:
				return nil, nil, err
			}
			return nil, nil, fmt.Errorf("section %q after the trailer", next)
		}
		if err := body(tag, payload); err != nil {
			return nil, nil, err
		}
	}
}

// noEOF turns a clean EOF in the middle of a section into the
// truncation it is, so callers can treat io.EOF from Next as "no more
// sections" and nothing else.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Cursor walks one section payload. Reads are bounds-checked; the
// first one that runs off the end is remembered (with its offset) and
// every later read returns zero, so a format decoder is a straight
// list of fields followed by one Err check — which it must make before
// trusting any value it read.
type Cursor struct {
	b   []byte
	off int
	err error
}

// NewCursor starts a cursor at the beginning of payload.
func NewCursor(payload []byte) *Cursor { return &Cursor{b: payload} }

// Err is the first read failure, or nil.
func (c *Cursor) Err() error { return c.err }

// Len is the number of unread bytes.
func (c *Cursor) Len() int { return len(c.b) - c.off }

// Uvarint reads one unsigned varint.
func (c *Cursor) Uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.err = fmt.Errorf("truncated or overlong uvarint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

// Bytes reads the next n bytes; the result aliases the payload.
func (c *Cursor) Bytes(n uint64) []byte {
	if c.err != nil {
		return nil
	}
	if uint64(c.Len()) < n {
		c.err = fmt.Errorf("truncated field at offset %d: want %d bytes, have %d", c.off, n, c.Len())
		return nil
	}
	b := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	return b
}

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if b := c.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// U64 reads one little-endian uint64.
func (c *Cursor) U64() uint64 {
	if b := c.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// F64 reads one little-endian IEEE-754 double.
func (c *Cursor) F64() float64 { return math.Float64frombits(c.U64()) }
