package hist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs/container"
)

// allocatedBy reports the bytes f allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

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
		cw.JSON(secHeader, header{Version: codecVersion, Series: 1}),
		cw.Section(secSeries, append(binary.AppendUvarint(nil, uint64(len(desc))), desc...)),
		cw.JSON(secTrailer, trailer{Series: 1}),
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
	for _, counts := range []string{`"samples":1,"blocks":1`, `"samples":-1`, `"samples":0,"blocks":-3`, `"samples":2`} {
		desc := []byte(`{"name":"x","type":"gauge","total":0,` + counts + `}`)
		payload := append(binary.AppendUvarint(nil, uint64(len(desc))), desc...)
		payload = append(payload, make([]byte, 16)...)
		if _, err := decodeSeries(payload); err == nil {
			t.Errorf("descriptor {%s} over a 16-byte body accepted", counts)
		}
	}

	// A 15-byte file whose one section claims 256 MiB allocated 256 MiB
	// at 63931b4 before reporting the truncation.
	hostile := binary.AppendUvarint([]byte(Magic+"S"), 1<<28)
	var err error
	got := allocatedBy(func() { _, err = ReadArchive(bytes.NewReader(hostile)) })
	if got >= 1<<20 {
		t.Fatalf("allocated %d bytes reading a %d-byte archive, want < 1 MiB", got, len(hostile))
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want truncation", err)
	}
}

// TestReadArchiveSkipsUnknownSections pins hist's forward-compatibility
// policy (the flight log's is the opposite: it rejects them).
func TestReadArchiveSkipsUnknownSections(t *testing.T) {
	var buf bytes.Buffer
	if err := archiveFixture().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	withExtra := append([]byte(Magic+"Z\x03abc"), buf.Bytes()[len(Magic):]...)
	a, err := ReadArchive(bytes.NewReader(withExtra))
	if err != nil || len(a.Series) != 2 {
		t.Fatalf("unknown 'Z' section: %v, %+v", err, a)
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
		got := allocatedBy(func() { a, err = ReadArchive(bytes.NewReader(data)) })
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
