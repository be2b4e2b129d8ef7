package flight

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

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
// rwc-wansim wrote at 63931b4 — 3 rounds × 3 policies on Abilene —,
// converted to format 3, decodes to the same run table and frames, and
// every frame hash verifies.
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
	if log.Meta.Tool != "rwc-wansim" || log.Meta.Seed != 2017 || len(log.Trailer.Trace) == 0 || len(log.Trailer.Metrics) == 0 {
		t.Fatalf("meta %+v, %d trace bytes, %d metrics bytes", log.Meta, len(log.Trailer.Trace), len(log.Trailer.Metrics))
	}
	if run := log.Runs[0]; run.Name != "" || run.Origin != 0 || run.Interval != 6*time.Hour || len(run.Verdicts) != 9 {
		t.Fatalf("run %q on axis (%v, %v) with %d verdict names, want the unnamed run at (0, 6h) with the gate's 9",
			run.Name, run.Origin, run.Interval, len(run.Verdicts))
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

	// A frame with no link records under a large run table must cost no
	// more to refuse than the same log without the frame costs to read:
	// its records are sized before any is allocated.
	logWith := func(secs ...section) []byte {
		run, err := json.Marshal(Run{Links: make([]Link, 50000), Interval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		secs = append([]section{handHeader("a"), {secRun, run}}, secs...)
		return handLog(t, append(secs, handTrailer)...)
	}
	honestLog := logWith()
	hostileLog := logWith(section{secFrame, encodeFrame(nil, 0, &RoundRecord{Policy: "p"})})
	honest := allocatedBy(func() { _, err = ReadLog(bytes.NewReader(honestLog)) })
	if err != nil {
		t.Fatal(err)
	}
	got = allocatedBy(func() { _, err = ReadLog(bytes.NewReader(hostileLog)) })
	if err == nil || !strings.Contains(err.Error(), "run table's 50000 links") {
		t.Fatalf("err = %v, want the frame refused", err)
	}
	if extra := int64(got) - int64(honest); extra > 64<<10 {
		t.Fatalf("refusing the frame allocated %d bytes more than reading the log without it", extra)
	}
}

// section is one hand-written container section.
type section struct {
	tag     byte
	payload []byte
}

// handLog writes sections into a flight log as given, in an order or
// number no recorder would write.
func handLog(t *testing.T, secs ...section) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := container.NewWriter(&buf, Magic)
	for _, sec := range secs {
		if err := cw.Section(sec.tag, sec.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// handHeader is a header naming tool; handTrailer is an empty trailer.
func handHeader(tool string) section {
	return section{container.HeaderTag, []byte(`{"tool":"` + tool + `","max_links":256}`)}
}

var handTrailer = section{container.TrailerTag, []byte{0, 0}}

// TestReadLogRejectsMalformed: logs no recorder writes, each of which
// the reader accepted before the container owned the envelope and the
// frame checks below it (the second header replaced the first's tool).
func TestReadLogRejectsMalformed(t *testing.T) {
	const link = `"links":[{"edge":0,"name":"A->B","fiber":0}],"verdicts":["steady","upgraded"],"admitted":1,"interval_ns":3600000000000`
	runA := section{secRun, []byte(`{"name":"a",` + link + `}`)}
	runB := section{secRun, []byte(`{"name":"b",` + link + `}`)}
	runAdmitting := func(n int) section {
		return section{secRun, []byte(strings.Replace(string(runA.payload), `"admitted":1`, fmt.Sprintf(`"admitted":%d`, n), 1))}
	}
	frameOf := func(round int, links ...LinkRecord) section {
		return section{secFrame, encodeFrame(nil, 0, &RoundRecord{Run: "a", Policy: "dynamic", Round: round, Links: links})}
	}
	frame := func(round int) section { return frameOf(round, LinkRecord{SNRdB: 14, Verdict: 1}) }
	if _, err := ReadLog(bytes.NewReader(handLog(t, handHeader("a"), runA, runB, frame(0), frame(1), handTrailer))); err != nil {
		t.Fatalf("the well-formed log the cases below break: %v", err)
	}
	for name, tc := range map[string]struct {
		secs []section
		want string
	}{
		"second header":         {[]section{handHeader("a"), handHeader("b"), runA, frame(0), handTrailer}, "second header"},
		"second trailer":        {[]section{handHeader("a"), runA, frame(0), handTrailer, handTrailer}, "after the trailer"},
		"frame after trailer":   {[]section{handHeader("a"), runA, frame(0), handTrailer, frame(1)}, "after the trailer"},
		"frame before header":   {[]section{runA, frame(0), handHeader("a"), handTrailer}, "not the header"},
		"run table after frame": {[]section{handHeader("a"), runA, frame(0), runB, handTrailer}, "run table after the first frame"},
		"duplicate frame key":   {[]section{handHeader("a"), runA, frame(1), frame(0), frame(1), handTrailer}, "two frames"},
		"no trailer":            {[]section{handHeader("a"), runA, frame(0)}, "truncated write"},
		"one link record short": {[]section{handHeader("a"), runA, frameOf(0), handTrailer}, "run table's 1 links"},
		"one link record over":  {[]section{handHeader("a"), runA, frameOf(0, LinkRecord{}, LinkRecord{}), handTrailer}, "run table's 1 links"},
		"verdict past names":    {[]section{handHeader("a"), runA, frameOf(0, LinkRecord{Verdict: 2}), handTrailer}, "verdict 2, run table names 2"},
		"duplicate run name":    {[]section{handHeader("a"), runA, runA, frame(0), handTrailer}, `duplicate run name "a"`},
		"admitted past links":   {[]section{handHeader("a"), runAdmitting(2), frame(0), handTrailer}, `run "a" admits 2 of 1 links`},
		"negative admitted":     {[]section{handHeader("a"), runAdmitting(-1), frame(0), handTrailer}, `run "a" admits -1 of 1 links`},
	} {
		if _, err := ReadLog(bytes.NewReader(handLog(t, tc.secs...))); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
}

// TestReadLogRejectsFormat1: a log written before the trailer held the
// run's artifact bytes stops at the magic, naming both versions.
func TestReadLogRejectsFormat1(t *testing.T) {
	_, err := ReadLog(strings.NewReader("RWCFLT1\nH\x02{}"))
	if err == nil || !strings.Contains(err.Error(), `bad magic "RWCFLT1\n"`) || !strings.Contains(err.Error(), Magic[:7]) {
		t.Fatalf("format-1 log: err = %v", err)
	}
}

// TestReadLogRejectsFormat2: a log whose link records still carried
// their index, tier, fake flag and residual, and a verdict of the
// recorder's own, stops at the magic, naming both versions.
func TestReadLogRejectsFormat2(t *testing.T) {
	_, err := ReadLog(strings.NewReader("RWCFLT2\nH\x02{}"))
	if err == nil || !strings.Contains(err.Error(), `bad magic "RWCFLT2\n"`) || !strings.Contains(err.Error(), Magic[:7]) {
		t.Fatalf("format-2 log: err = %v", err)
	}
}

// FuzzReadLog: any bytes either fail to decode or decode to a log that
// the rest of the package can use — hash verification, the JSONL
// export and the history rebuild return (an edited frame fails
// verification; that is an error, not a crash) — without allocating
// more than a small multiple of the input.
func FuzzReadLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var log *Log
		var err error
		got := allocatedBy(func() { log, err = ReadLog(bytes.NewReader(data)) })
		// A link record is ~1.3× its 57-byte encoding and JSON decodes
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
		log.History()
	})
}
