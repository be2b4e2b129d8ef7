package hist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/obs/container"
	"repro/internal/obs/obstest"
)

// TestReadArchiveDecodesParentWrittenArchive is the decode half of the
// format pin (internal/obs/container holds the section-level half): the
// archive rwc-wansim wrote at 63931b4 — 3 rounds × 3 policies on
// Abilene, flight recorder attached — decodes to the same series, and
// WriteBinary turns them back into the very same bytes.
func TestReadArchiveDecodesParentWrittenArchive(t *testing.T) {
	want, err := os.ReadFile("../container/testdata/abilene3.hist")
	if err != nil {
		t.Fatal(err)
	}
	a, err := ReadArchive(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if a.Meta.Tool != "rwc-wansim" || a.Meta.Seed != 2017 || len(a.Series) != 229 {
		t.Fatalf("meta %+v, %d series; want rwc-wansim/2017, 229", a.Meta, len(a.Series))
	}
	for _, s := range a.Series {
		if len(s.Samples) != 3 && len(s.Samples) != 1 {
			t.Fatalf("series %s has %d samples in a 3-round run", s.Key(), len(s.Samples))
		}
	}
	var got bytes.Buffer
	if err := a.WriteBinary(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("re-encoding differs from the parent-written archive (%d vs %d bytes)", got.Len(), len(want))
	}
}

// hostileSampleCount is a well-formed archive whose one series
// descriptor claims 2^60 samples: 16 × 2^60 wraps to 0, so the old
// "payload length == need" check passed and make() panicked.
func hostileSampleCount(t *testing.T) []byte {
	var buf bytes.Buffer
	cw := container.NewWriter(&buf, Magic)
	desc := []byte(`{"name":"x","type":"gauge","total":0,"samples":1152921504606846976}`)
	for _, err := range []error{
		cw.JSON(container.HeaderTag, header{Version: codecVersion, Series: 1}),
		cw.Section(secSeries, append(binary.AppendUvarint(nil, uint64(len(desc))), desc...)),
		cw.JSON(container.TrailerTag, trailer{Series: 1}),
		cw.Flush(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestReadArchiveHostileCountsAndLengths(t *testing.T) {
	// Panicked ("makeslice: len out of range") at 63931b4.
	if _, err := ReadArchive(bytes.NewReader(hostileSampleCount(t))); err == nil || !strings.Contains(err.Error(), "do not fill") {
		t.Fatalf("2^60 samples in an empty payload: err = %v", err)
	}
	// Counts whose byte sizes are individually plausible but do not add
	// up, and negative ones, are refused the same way.
	for _, counts := range []string{`"samples":-1`, `"samples":0`, `"samples":2`} {
		desc := []byte(`{"name":"x","type":"gauge","total":0,` + counts + `}`)
		payload := append(binary.AppendUvarint(nil, uint64(len(desc))), desc...)
		payload = append(payload, make([]byte, 16)...)
		if _, err := decodeSeries(payload); err == nil {
			t.Errorf("descriptor {%s} over a 16-byte body accepted", counts)
		}
	}

	// A series written with the retired downsample tier: one sample and
	// one 56-byte block. The block count is not read, so the block bytes
	// fail the length check instead of passing as samples.
	desc := []byte(`{"name":"x","type":"gauge","total":9,"samples":1,"blocks":1}`)
	withBlock := append(binary.AppendUvarint(nil, uint64(len(desc))), desc...)
	if _, err := decodeSeries(append(withBlock, make([]byte, 16+56)...)); err == nil || !strings.Contains(err.Error(), "do not fill") {
		t.Errorf("series with a downsampled block: err = %v, want it refused", err)
	}

	// A 15-byte file whose one section claims 256 MiB allocated 256 MiB
	// at 63931b4 before reporting the truncation.
	hostile := binary.AppendUvarint([]byte(Magic+"S"), 1<<28)
	var err error
	got := obstest.AllocatedBy(func() { _, err = ReadArchive(bytes.NewReader(hostile)) })
	if got >= 1<<20 {
		t.Fatalf("allocated %d bytes reading a %d-byte archive, want < 1 MiB", got, len(hostile))
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want truncation", err)
	}
}

// TestReadArchiveRejectsUnknownSections: no writer emits a tag other
// than the header, series and trailer, and the version in the magic is
// the compatibility gate, so an unknown section is an error (it was
// skipped before the container owned the envelope).
func TestReadArchiveRejectsUnknownSections(t *testing.T) {
	var buf bytes.Buffer
	if err := archiveFixture().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// The header section is tag, one-byte length, payload.
	afterHeader := len(Magic) + 2 + int(whole[len(Magic)+1])
	withExtra := append(append(append([]byte(nil), whole[:afterHeader]...), "Z\x03abc"...), whole[afterHeader:]...)
	if _, err := ReadArchive(bytes.NewReader(withExtra)); err == nil || !strings.Contains(err.Error(), "unknown section") {
		t.Fatalf("unknown 'Z' section: err = %v, want it refused", err)
	}
}

// TestReadArchiveRejectsMalformed: archives no writer produces, each
// of which the reader accepted before the container owned the envelope
// and the series checks below it.
func TestReadArchiveRejectsMalformed(t *testing.T) {
	series := func(name string) []byte { return appendSeries(nil, Series{Name: name, Type: "gauge"}) }
	hdr := func(tool string, n int) []byte {
		b, _ := json.Marshal(header{Version: codecVersion, Tool: tool, Series: n})
		return b
	}
	tr := func(n int) []byte {
		b, _ := json.Marshal(trailer{Series: n})
		return b
	}
	type section struct {
		tag     byte
		payload []byte
	}
	for name, tc := range map[string]struct {
		secs []section
		want string
	}{
		"second header":                        {[]section{{'H', hdr("a", 1)}, {'H', hdr("b", 1)}, {'S', series("x")}, {'T', tr(1)}}, "second header"},
		"second trailer":                       {[]section{{'H', hdr("a", 1)}, {'S', series("x")}, {'T', tr(1)}, {'T', tr(1)}}, "after the trailer"},
		"header count disagrees with the body": {[]section{{'H', hdr("a", 7)}, {'S', series("x")}, {'T', tr(1)}}, "header says 7"},
		"repeated series key":                  {[]section{{'H', hdr("a", 2)}, {'S', series("x")}, {'S', series("x")}, {'T', tr(2)}}, "appears twice"},
	} {
		var buf bytes.Buffer
		cw := container.NewWriter(&buf, Magic)
		for _, sec := range tc.secs {
			if err := cw.Section(sec.tag, sec.payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := cw.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadArchive(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
}

// FuzzReadArchive: any bytes either fail to decode or decode to an
// archive whose canonical encoding is a fixed point (write → read →
// write gives the same bytes), without allocating more than a small
// multiple of the input.
func FuzzReadArchive(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var a *Archive
		var err error
		got := obstest.AllocatedBy(func() { a, err = ReadArchive(bytes.NewReader(data)) })
		if limit := uint64(1<<20 + 32*len(data)); got > limit {
			t.Fatalf("allocated %d bytes decoding %d (limit %d)", got, len(data), limit)
		}
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := a.WriteBinary(&first); err != nil {
			t.Fatal(err)
		}
		b, err := ReadArchive(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading our own encoding: %v", err)
		}
		if err := b.WriteBinary(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}
