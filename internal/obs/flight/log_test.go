package flight

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

// TestReadLogDecodesParentWrittenLog is the decode half of the format
// pin (internal/obs/container holds the byte-for-byte half): the log
// rwc-wansim wrote at 63931b4 — 3 rounds × 3 policies on Abilene —
// decodes to the same run table and frames, and every frame hash still
// verifies.
func TestReadLogDecodesParentWrittenLog(t *testing.T) {
	f, err := os.Open("../container/testdata/abilene3.flight")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := ReadLog(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.VerifyHashes(); err != nil {
		t.Fatal(err)
	}
	if len(log.Runs) != 1 || len(log.Runs[0].Links) != 28 || len(log.Frames) != 9 {
		t.Fatalf("decoded %d runs, %d links, %d frames; want 1, 28, 9", len(log.Runs), len(log.Runs[0].Links), len(log.Frames))
	}
	for i, fr := range log.Frames {
		if wantPolicy := []string{"dynamic", "static-100G", "static-max"}[i/3]; fr.Policy != wantPolicy || fr.Round != i%3 || len(fr.Links) != 28 {
			t.Fatalf("frame %d = (%s, round %d, %d links)", i, fr.Policy, fr.Round, len(fr.Links))
		}
	}
	if log.Meta.Tool != "rwc-wansim" || log.Meta.Seed != 2017 || len(log.Trailer.Trace) == 0 || len(log.Trailer.Metrics.Families) == 0 {
		t.Fatalf("meta %+v, %d trace lines, %d metric families", log.Meta, len(log.Trailer.Trace), len(log.Trailer.Metrics.Families))
	}
}

// TestReadLogHostileLengths: lengths and counts written by someone else
// must be checked against the bytes that are actually there before
// anything is allocated from them. The first case allocated 256 MiB at
// 63931b4.
func TestReadLogHostileLengths(t *testing.T) {
	hostile := binary.AppendUvarint([]byte(Magic+"F"), 1<<28)
	var err error
	got := allocatedBy(func() { _, err = ReadLog(bytes.NewReader(hostile)) })
	if got >= 1<<20 {
		t.Fatalf("allocated %d bytes reading a %d-byte log, want < 1 MiB", got, len(hostile))
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want truncation", err)
	}

	// A frame that claims as many links as its (large) run table has,
	// in a payload with room for none of them, must cost no more to
	// refuse than the same log with an honest empty frame costs to read.
	logWithFrame := func(claimedLinks uint64) []byte {
		var buf bytes.Buffer
		cw := container.NewWriter(&buf, Magic)
		frame := encodeFrame(nil, 0, &RoundRecord{Policy: "p"})
		frame = binary.AppendUvarint(frame[:len(frame)-1], claimedLinks) // the link count is the last field
		for _, err := range []error{
			cw.JSON(secHeader, header{Version: 1}),
			cw.JSON(secRun, Run{Links: make([]Link, 50000)}),
			cw.Section(secFrame, frame),
			cw.JSON(secTrailer, Trailer{}),
			cw.Flush(),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	honestLog, hostileLog := logWithFrame(0), logWithFrame(50000)
	honest := allocatedBy(func() { _, err = ReadLog(bytes.NewReader(honestLog)) })
	if err != nil {
		t.Fatal(err)
	}
	got = allocatedBy(func() { _, err = ReadLog(bytes.NewReader(hostileLog)) })
	if err == nil || !strings.Contains(err.Error(), "claims 50000 links") {
		t.Fatalf("err = %v, want the link count refused", err)
	}
	if extra := int64(got) - int64(honest); extra > 64<<10 {
		t.Fatalf("refusing the frame allocated %d bytes more than reading an honest one", extra)
	}
}

// FuzzReadLog: any bytes either fail to decode or decode to a log that
// the rest of the package can use — hash verification and the JSONL
// export return (an edited frame fails verification; that is an error,
// not a crash) — without allocating more than a small multiple of the
// input.
func FuzzReadLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var log *Log
		var err error
		got := allocatedBy(func() { log, err = ReadLog(bytes.NewReader(data)) })
		// A link record is ~1.3× its 77-byte encoding and JSON decodes
		// to a few times its text; 32× leaves room for both.
		if limit := uint64(1<<20 + 32*len(data)); got > limit {
			t.Fatalf("allocated %d bytes decoding %d (limit %d)", got, len(data), limit)
		}
		if err != nil {
			return
		}
		verified := log.VerifyHashes() == nil
		if err := log.WriteJSONL(io.Discard); err != nil && verified && !strings.Contains(err.Error(), "unsupported value") {
			t.Fatalf("WriteJSONL on a hash-verified log: %v", err)
		}
	})
}
