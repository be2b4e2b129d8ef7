package container

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/obs/obstest"
)

const (
	flightMagic = "RWCFLT4\n"
	histMagic   = "RWCHIST1\n"
)

// magicOf picks the magic a file starts with (the container itself
// takes it from the caller; the tests feed it both formats).
func magicOf(data []byte) string {
	if bytes.HasPrefix(data, []byte(histMagic)) {
		return histMagic
	}
	return flightMagic
}

type section struct {
	tag     byte
	payload []byte
}

func tagsOf(secs []section) string {
	tags := make([]byte, len(secs))
	for i, s := range secs {
		tags[i] = s.tag
	}
	return string(tags)
}

// readAll walks every section, copying payloads out of the reused buffer.
func readAll(data []byte, magic string) ([]section, error) {
	r, err := Open(bytes.NewReader(data), magic)
	if err != nil {
		return nil, err
	}
	var out []section
	for {
		tag, payload, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, section{tag, append([]byte(nil), payload...)})
	}
}

func writeAll(t testing.TB, magic string, secs []section) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, magic)
	for _, s := range secs {
		if err := w.Section(s.tag, s.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParentArtifactsPassThrough is the format pin: testdata holds the
// .hist file rwc-wansim wrote at 63931b4 (-rounds 3, all planes, before
// this package existed) and the .flight file it wrote in the same run,
// converted to flight format 4: the header without its version and
// interval, the run table with its interval and the gate's verdict
// names, each policy's frames a keyframe then deltas, the link records
// without their index, tier, fake flag and residual and with the
// gate's verdict, and the trailer as the metrics and trace bytes the
// run wrote. Reader → Writer must reproduce both byte for byte, and both
// must pass ReadEnvelope. (The flight and hist packages pin the decoded
// frame and series counts of the same files.)
func TestParentArtifactsPassThrough(t *testing.T) {
	for name, wantSections := range map[string]int{"abilene3.flight": 12, "abilene3.hist": 231} {
		data, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		secs, err := readAll(data, magicOf(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(secs) != wantSections {
			t.Errorf("%s: %d sections, want %d", name, len(secs), wantSections)
		}
		if first, last := secs[0].tag, secs[len(secs)-1].tag; first != 'H' || last != 'T' {
			t.Errorf("%s: first/last tags %q/%q, want header and trailer", name, first, last)
		}
		if got := writeAll(t, magicOf(data), secs); !bytes.Equal(got, data) {
			t.Errorf("%s: pass-through differs from the pinned file (%d vs %d bytes)", name, len(got), len(data))
		}
		var body int
		if _, _, err := ReadEnvelope(bytes.NewReader(data), magicOf(data), func(byte, []byte) error { body++; return nil }); err != nil || body != wantSections-2 {
			t.Errorf("%s: envelope read %d body sections, err %v; want %d", name, body, err, wantSections-2)
		}
	}
}

// TestReadEnvelope: one header first, one trailer last, neither in
// between, nothing after, and EOF before the trailer is a truncated
// write. The body sees exactly the sections in between, in order.
func TestReadEnvelope(t *testing.T) {
	h, tr := section{HeaderTag, []byte("h")}, section{TrailerTag, []byte("t")}
	a, b := section{'A', []byte("a")}, section{'B', nil}
	var seen []byte
	header, trailer, err := ReadEnvelope(bytes.NewReader(writeAll(t, flightMagic, []section{h, a, b, a, tr})), flightMagic,
		func(tag byte, payload []byte) error {
			seen = append(seen, tag)
			return nil
		})
	if err != nil || string(header) != "h" || string(trailer) != "t" || string(seen) != "ABA" {
		t.Fatalf("well-formed: header %q, trailer %q, body %q, err %v", header, trailer, seen, err)
	}
	for name, tc := range map[string]struct {
		secs []section
		want string
	}{
		"empty":                 {nil, "no header"},
		"body first":            {[]section{a, h, tr}, "not the header"},
		"trailer first":         {[]section{tr}, "not the header"},
		"second header":         {[]section{h, a, h, tr}, "second header"},
		"second trailer":        {[]section{h, tr, tr}, "after the trailer"},
		"section after trailer": {[]section{h, a, tr, a}, "after the trailer"},
		"no trailer":            {[]section{h, a}, "no trailer"},
		"header only":           {[]section{h}, "no trailer"},
	} {
		_, _, err := ReadEnvelope(bytes.NewReader(writeAll(t, flightMagic, tc.secs)), flightMagic, func(byte, []byte) error { return nil })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
	// The body's error stops the read and is returned as it is.
	stop := errors.New("stop")
	if _, _, err := ReadEnvelope(bytes.NewReader(writeAll(t, flightMagic, []section{h, a, tr})), flightMagic,
		func(byte, []byte) error { return stop }); err != stop {
		t.Fatalf("body error: %v", err)
	}
	// A cut inside a section is the container's truncation error.
	whole := writeAll(t, flightMagic, []section{h, a, tr})
	if _, _, err := ReadEnvelope(bytes.NewReader(whole[:len(whole)-1]), flightMagic, func(byte, []byte) error { return nil }); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("cut trailer: %v", err)
	}
}

func TestWriterJSONSection(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, "M\n")
	if err := w.JSON('H', struct {
		V int `json:"v"`
	}{7}); err != nil {
		t.Fatal(err)
	}
	if err := w.JSON('X', func() {}); err == nil {
		t.Fatal("unmarshalable value must fail")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "M\nH\x07{\"v\":7}"; got != want {
		t.Fatalf("wrote %q, want %q", got, want)
	}
}

func TestOpenRejectsWrongOrShortMagic(t *testing.T) {
	if _, err := Open(strings.NewReader("RWCHIST1\n"), flightMagic); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("wrong magic: %v", err)
	}
	if _, err := Open(strings.NewReader("RWC"), flightMagic); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short magic: %v", err)
	}
}

// TestHostileLengthAllocatesLittle: a 14-byte file whose one section
// claims 256 MiB used to make both readers allocate 256 MiB before
// noticing the payload was not there.
func TestHostileLengthAllocatesLittle(t *testing.T) {
	hostile := binary.AppendUvarint([]byte(flightMagic+"F"), MaxSectionLen)
	if len(hostile) != 14 {
		t.Fatalf("hostile file is %d bytes", len(hostile))
	}
	var err error
	got := obstest.AllocatedBy(func() { _, err = readAll(hostile, flightMagic) })
	if got >= 1<<20 {
		t.Fatalf("allocated %d bytes reading a %d-byte file, want < 1 MiB", got, len(hostile))
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want truncation", err)
	}
	// One past the cap is refused from the length alone.
	over := binary.AppendUvarint([]byte(flightMagic+"F"), MaxSectionLen+1)
	if _, err := readAll(over, flightMagic); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("over-limit section: %v", err)
	}
}

func TestTruncationIsNeverCleanEOF(t *testing.T) {
	whole := writeAll(t, flightMagic, []section{{'H', []byte("{}")}, {'F', bytes.Repeat([]byte{7}, 300)}})
	for cut := len(flightMagic) + 1; cut < len(whole); cut++ {
		if cut == len(flightMagic)+1+1+2 { // exactly after the first section
			continue
		}
		if _, err := readAll(whole[:cut], flightMagic); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestReaderReusesAndGrowsBuffer(t *testing.T) {
	big := bytes.Repeat([]byte("abcdefgh"), 40<<10) // 320 KiB: several growth steps
	data := writeAll(t, flightMagic, []section{{'A', big}, {'B', []byte("small")}, {'C', nil}, {'D', big}})
	r, err := Open(bytes.NewReader(data), flightMagic)
	if err != nil {
		t.Fatal(err)
	}
	// readTo allocates what opening the container and reading its first
	// n sections does; AllocatedBy runs it several times, so section i's
	// own allocation is readTo(i+1) − readTo(i).
	readTo := func(n int) uint64 {
		return obstest.AllocatedBy(func() {
			r, _ := Open(bytes.NewReader(data), flightMagic)
			for range n {
				r.Next()
			}
		})
	}
	for i, want := range [][]byte{big, []byte("small"), nil, big} {
		_, payload, err := r.Next()
		if err != nil || !bytes.Equal(payload, want) {
			t.Fatalf("section %d: err %v, %d bytes (want %d)", i, err, len(payload), len(want))
		}
		if grew := readTo(i+1) - readTo(i); i > 0 && grew > 1<<10 {
			t.Errorf("section %d allocated %d bytes; the buffer from section 0 should have been reused", i, grew)
		}
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last section: %v, want io.EOF", err)
	}
}

func TestCursor(t *testing.T) {
	b := binary.AppendUvarint(nil, 300)
	b = append(b, "hey"...)
	b = binary.LittleEndian.AppendUint64(b, 0x0102030405060708)
	b = binary.LittleEndian.AppendUint64(b, 0x3ff8000000000000) // 1.5
	b = append(b, 9)
	c := NewCursor(b)
	if v := c.Uvarint(); v != 300 {
		t.Fatalf("Uvarint = %d", v)
	}
	if s := string(c.Bytes(3)); s != "hey" {
		t.Fatalf("Bytes = %q", s)
	}
	if v := c.U64(); v != 0x0102030405060708 {
		t.Fatalf("U64 = %x", v)
	}
	if v := c.F64(); v != 1.5 {
		t.Fatalf("F64 = %v", v)
	}
	if v, left := c.Byte(), c.Len(); v != 9 || left != 0 || c.Err() != nil {
		t.Fatalf("Byte = %d, Len = %d, Err = %v", v, left, c.Err())
	}
	// Past the end: the first failure sticks, names its offset, and
	// every later read is a harmless zero.
	if v := c.U64(); v != 0 || c.Err() == nil || !strings.Contains(c.Err().Error(), "offset 22") {
		t.Fatalf("read past end: %d, %v", v, c.Err())
	}
	first := c.Err()
	if c.Uvarint() != 0 || c.Byte() != 0 || c.Bytes(0) != nil || c.F64() != 0 || c.Err() != first {
		t.Fatalf("reads after a failure must return zero and keep the first error, got %v", c.Err())
	}
	// A length field larger than what is left must not be sliced.
	if c := NewCursor([]byte{1, 2}); c.Bytes(1<<62) != nil || c.Err() == nil {
		t.Fatal("oversized Bytes must fail")
	}
	// An overlong uvarint (11 continuation bytes) is an error, not a value.
	if c := NewCursor(bytes.Repeat([]byte{0x80}, 11)); c.Uvarint() != 0 || c.Err() == nil {
		t.Fatal("overlong uvarint must fail")
	}
	// Signed varints of one byte and of several, as encoding/binary
	// writes them.
	vals := []int64{0, -1, 1, 63, -64, 64, -65, 1 << 40, math.MinInt64, math.MaxInt64}
	b = nil
	for _, v := range vals {
		b = binary.AppendVarint(b, v)
	}
	c = NewCursor(b)
	for _, want := range vals {
		if got := c.Varint(); got != want || c.Err() != nil {
			t.Fatalf("Varint = %d, want %d (err %v)", got, want, c.Err())
		}
	}
	if c.Varint() != 0 || c.Err() == nil {
		t.Fatal("Varint past the end must fail")
	}
}

// FuzzContainerReader (seeds: testdata/fuzz — two small containers cut
// from the 3-round Abilene run (the flight one: its first keyframe and
// delta), the hostile files, and a flight log with two headers and one
// with a frame after its trailer; the whole run is
// too big a seed, the fuzzer spends its budget minimizing it): whatever
// the bytes, the reader returns sections
// or an error — it never panics and never allocates more than a small
// multiple of what it was given — ReadEnvelope accepts exactly the
// section lists that are one header, body sections and one trailer,
// and what the reader did read survives a Writer → Reader round trip
// unchanged.
func FuzzContainerReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		magic := magicOf(data)
		var secs []section
		var err error
		got := obstest.AllocatedBy(func() { secs, err = readAll(data, magic) })
		if limit := uint64(1<<20 + 8*len(data)); got > limit {
			t.Fatalf("allocated %d bytes reading %d (limit %d)", got, len(data), limit)
		}
		var body []section
		header, trailer, envErr := ReadEnvelope(bytes.NewReader(data), magic, func(tag byte, payload []byte) error {
			body = append(body, section{tag, append([]byte(nil), payload...)})
			return nil
		})
		enveloped := err == nil && len(secs) >= 2 && secs[0].tag == HeaderTag && secs[len(secs)-1].tag == TrailerTag
		if enveloped {
			for _, s := range secs[1 : len(secs)-1] {
				enveloped = enveloped && s.tag != HeaderTag && s.tag != TrailerTag
			}
		}
		if (envErr == nil) != enveloped {
			t.Fatalf("ReadEnvelope err = %v on sections %q (reader err %v)", envErr, tagsOf(secs), err)
		}
		if enveloped && (!bytes.Equal(header, secs[0].payload) || !bytes.Equal(trailer, secs[len(secs)-1].payload) || len(body) != len(secs)-2) {
			t.Fatalf("ReadEnvelope split %q into a %d-section body", tagsOf(secs), len(body))
		}
		if err != nil && len(secs) == 0 {
			return
		}
		again, err2 := readAll(writeAll(t, magic, secs), magic)
		if err2 != nil || len(again) != len(secs) {
			t.Fatalf("re-read of %d written sections: %d, %v", len(secs), len(again), err2)
		}
		for i := range secs {
			if again[i].tag != secs[i].tag || !bytes.Equal(again[i].payload, secs[i].payload) {
				t.Fatalf("section %d changed in the round trip", i)
			}
		}
	})
}

// TestSectionFuncMatchesSection: a section written by SectionFunc, its
// length declared before its bytes, is the section Section writes from
// the same bytes; a write of another length than declared fails.
func TestSectionFuncMatchesSection(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789"), 30<<10) // past the writer's buffer
	want := writeAll(t, flightMagic, []section{{'H', []byte("{}")}, {'P', payload}, {'T', nil}})
	var got bytes.Buffer
	w := NewWriter(&got, flightMagic)
	for _, s := range []section{{'H', []byte("{}")}, {'P', payload}, {'T', nil}} {
		err := w.SectionFunc(s.tag, int64(len(s.payload)), func(w io.Writer) error {
			// In pieces, as a renderer writes.
			for p := s.payload; len(p) > 0; p = p[min(len(p), 4096):] {
				if _, err := w.Write(p[:min(len(p), 4096)]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("SectionFunc wrote other bytes than Section")
	}
	for _, size := range []int64{9, 11} {
		w := NewWriter(io.Discard, flightMagic)
		err := w.SectionFunc('P', size, func(w io.Writer) error {
			_, err := w.Write([]byte("0123456789"))
			return err
		})
		if err == nil || !strings.Contains(err.Error(), "declared") {
			t.Fatalf("declared %d, wrote 10: err = %v", size, err)
		}
	}
}
