package flight

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/obs/container"
	"repro/internal/obs/obstest"
)

// TestReadLogDecodesParentWrittenLog is the decode half of the format
// pin (internal/obs/container holds the byte-for-byte half): the log
// rwc-wansim wrote at 63931b4 — 3 rounds × 3 policies on Abilene —,
// converted to format 4, decodes to the same run table and frames, and
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
	got := obstest.AllocatedBy(func() { _, err = ReadLog(bytes.NewReader(hostile)) })
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
	hostileLog := logWith(frameSection(0, kindKey, nil, RoundRecord{Policy: "p"}))
	honest := obstest.AllocatedBy(func() { _, err = ReadLog(bytes.NewReader(honestLog)) })
	if err != nil {
		t.Fatal(err)
	}
	got = obstest.AllocatedBy(func() { _, err = ReadLog(bytes.NewReader(hostileLog)) })
	if err == nil || !strings.Contains(err.Error(), "run table's 50000 links") {
		t.Fatalf("err = %v, want the frame refused", err)
	}
	if extra := int64(got) - int64(honest); extra > 64<<10 {
		t.Fatalf("refusing the frame allocated %d bytes more than reading the log without it", extra)
	}
}

// linkRecordSize is what one link record costs in a Log.
const linkRecordSize = uint64(unsafe.Sizeof(LinkRecord{}))

// linkRecords counts the link records of log's frames.
func linkRecords(log *Log) int {
	n := 0
	for i := range log.Frames {
		n += len(log.Frames[i].Links)
	}
	return n
}

// TestReadLogFailingLogHoldsNoLinkRecords: an unchanged link is one
// mask byte on the wire and a LinkRecord in the log, so a reader that
// expanded frames as they arrived would allocate ~70× a log of steady
// links before finding its end cut. ReadLog checks every frame first
// and expands them only once the log has read.
func TestReadLogFailingLogHoldsNoLinkRecords(t *testing.T) {
	const links, rounds = 1000, 300
	run, err := json.Marshal(Run{Name: "a", Links: make([]Link, links), Verdicts: testVerdicts, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	steady := make([]LinkRecord, links)
	for i := range steady {
		steady[i] = LinkRecord{SNRdB: 14.25, FeasibleGbps: 150, CapacityGbps: 100}
	}
	secs := []section{handHeader("a"), {secRun, run}, frameSection(0, kindKey, nil, RoundRecord{Policy: "dynamic", Links: steady})}
	for r := 1; r < rounds; r++ {
		secs = append(secs, frameSection(0, kindDelta, steady, RoundRecord{Policy: "dynamic", Round: r, Links: steady}))
	}
	read := handLog(t, append(secs, handTrailer)...)
	log, err := ReadLog(bytes.NewReader(read))
	if err != nil || linkRecords(log) != links*rounds {
		t.Fatalf("the well-formed log: %d link records, err %v", linkRecords(log), err)
	}
	cut := handLog(t, secs...)
	got := obstest.AllocatedBy(func() { _, err = ReadLog(bytes.NewReader(cut)) })
	if err == nil || !strings.Contains(err.Error(), "truncated write") {
		t.Fatalf("err = %v, want the cut log refused", err)
	}
	if limit := uint64(1<<20 + 4*len(cut)); got > limit {
		t.Fatalf("refusing a %d-byte log allocated %d bytes (limit %d; its link records are %d)",
			len(cut), got, limit, linkRecordSize*links*rounds)
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

// frameSection encodes rec as a frame of the run at index run: a
// keyframe, or a delta against base.
func frameSection(run int, kind byte, base []LinkRecord, rec RoundRecord) section {
	if base == nil {
		base = make([]LinkRecord, len(rec.Links))
	}
	return section{secFrame, appendFrame(binary.AppendUvarint(nil, uint64(run)), kind, base, &rec)}
}

// handHeader is a header naming tool; handTrailer is an empty trailer.
func handHeader(tool string) section {
	return section{container.HeaderTag, []byte(`{"tool":"` + tool + `","max_links":256}`)}
}

var handTrailer = section{container.TrailerTag, []byte{0, 0}}

// TestReadLogRejectsMalformed: logs no recorder writes. The envelope
// and frame-count cases are ones the reader accepted before the
// container owned the envelope and the frame checks below it (the
// second header replaced the first's tool); the stream and link-record
// cases are the delta codec's refusals.
func TestReadLogRejectsMalformed(t *testing.T) {
	const link = `"links":[{"edge":0,"name":"A->B","fiber":0}],"verdicts":["steady","upgraded"],"admitted":1,"interval_ns":3600000000000`
	runA := section{secRun, []byte(`{"name":"a",` + link + `}`)}
	runB := section{secRun, []byte(`{"name":"b",` + link + `}`)}
	runAdmitting := func(n int) section {
		return section{secRun, []byte(strings.Replace(string(runA.payload), `"admitted":1`, fmt.Sprintf(`"admitted":%d`, n), 1))}
	}
	one := []LinkRecord{{SNRdB: 14, Verdict: 1}}
	frameOf := func(round int, links ...LinkRecord) section {
		return frameSection(0, kindKey, nil, RoundRecord{Run: "a", Policy: "dynamic", Round: round, Links: links})
	}
	frame := func(round int) section { return frameOf(round, one...) }
	// delta is run's policy frame for round, on one's values, its SNR
	// moved by a quarter dB.
	delta := func(run int, policy string, round int) section {
		return frameSection(run, kindDelta, one, RoundRecord{Policy: policy, Round: round, Links: []LinkRecord{{SNRdB: 14.25, Verdict: 1}}})
	}
	// rawLink is a one-link keyframe whose link record is rec as given.
	rawLink := func(rec ...byte) section {
		f := frameSection(0, kindKey, nil, RoundRecord{Policy: "dynamic"})
		f.payload = append(f.payload, rec...)
		return f
	}
	if _, err := ReadLog(bytes.NewReader(handLog(t, handHeader("a"), runA, runB, frame(0), delta(0, "dynamic", 1), handTrailer))); err != nil {
		t.Fatalf("the well-formed log the cases below break: %v", err)
	}
	for name, tc := range map[string]struct {
		secs []section
		want string
	}{
		"second header":           {[]section{handHeader("a"), handHeader("b"), runA, frame(0), handTrailer}, "second header"},
		"second trailer":          {[]section{handHeader("a"), runA, frame(0), handTrailer, handTrailer}, "after the trailer"},
		"frame after trailer":     {[]section{handHeader("a"), runA, frame(0), handTrailer, frame(1)}, "after the trailer"},
		"frame before header":     {[]section{runA, frame(0), handHeader("a"), handTrailer}, "not the header"},
		"run table after frame":   {[]section{handHeader("a"), runA, frame(0), runB, handTrailer}, "run table after the first frame"},
		"second keyframe":         {[]section{handHeader("a"), runA, frame(1), frame(0), handTrailer}, "streams are written once each"},
		"streams out of order":    {[]section{handHeader("a"), runA, runB, frameSection(1, kindKey, nil, RoundRecord{Policy: "dynamic", Links: one}), frame(0), handTrailer}, "streams are written once each"},
		"delta with no base":      {[]section{handHeader("a"), runA, delta(0, "dynamic", 0), handTrailer}, "has no base"},
		"delta on another policy": {[]section{handHeader("a"), runA, frame(0), delta(0, "static-max", 1), handTrailer}, `on a base of (run "a", policy "dynamic")`},
		"delta on another run":    {[]section{handHeader("a"), runA, runB, frame(0), delta(1, "dynamic", 1), handTrailer}, `delta frame (run "b", policy "dynamic", round 1) on a base of (run "a"`},
		"repeated round":          {[]section{handHeader("a"), runA, frame(1), delta(0, "dynamic", 1), handTrailer}, "round 1 after round 1"},
		"earlier round":           {[]section{handHeader("a"), runA, frame(1), delta(0, "dynamic", 0), handTrailer}, "round 0 after round 1"},
		"unknown frame kind":      {[]section{handHeader("a"), runA, frameSection(0, 2, nil, RoundRecord{Policy: "dynamic", Links: one}), handTrailer}, "frame kind 2"},
		"verdict unchanged":       {[]section{handHeader("a"), runA, rawLink(verdictBit, 0), handTrailer}, "marks verdict 0 changed from itself"},
		"length byte keeps none":  {[]section{handHeader("a"), runA, rawLink(1, 0x30, 7), handTrailer}, "field 0 length byte 0x30"},
		"length byte past 8":      {[]section{handHeader("a"), runA, rawLink(2, 0x45, 1, 2, 3, 4, 5), handTrailer}, "field 1 length byte 0x45"},
		"XOR not trimmed":         {[]section{handHeader("a"), runA, rawLink(1, 0x02, 7, 0), handTrailer}, "field 0 XOR 0700 is not trimmed"},
		"link record cut short":   {[]section{handHeader("a"), runA, rawLink(1, 0x02, 7), handTrailer}, "truncated field"},
		"no trailer":              {[]section{handHeader("a"), runA, frame(0)}, "truncated write"},
		"one link record short":   {[]section{handHeader("a"), runA, frameOf(0), handTrailer}, "run table's 1 links"},
		"one link record over":    {[]section{handHeader("a"), runA, frameOf(0, LinkRecord{}, LinkRecord{}), handTrailer}, "run table's 1 links"},
		"verdict past names":      {[]section{handHeader("a"), runA, frameOf(0, LinkRecord{Verdict: 2}), handTrailer}, "verdict 2, run table names 2"},
		"duplicate run name":      {[]section{handHeader("a"), runA, runA, frame(0), handTrailer}, `duplicate run name "a"`},
		"admitted past links":     {[]section{handHeader("a"), runAdmitting(2), frame(0), handTrailer}, `run "a" admits 2 of 1 links`},
		"negative admitted":       {[]section{handHeader("a"), runAdmitting(-1), frame(0), handTrailer}, `run "a" admits -1 of 1 links`},
	} {
		if _, err := ReadLog(bytes.NewReader(handLog(t, tc.secs...))); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
}

// frameBits renders every field of f, doubles as their bits, so NaN
// payloads and signed zeros compare exactly.
func frameBits(f *RoundRecord) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%q %q %d %x %x %x %d %x |", f.Run, f.Policy, f.Round,
		math.Float64bits(f.OfferedGbps), math.Float64bits(f.ShippedGbps), math.Float64bits(f.CapacityGbps), f.Changes, f.Hash)
	for i := range f.Links {
		fmt.Fprintf(&b, " %d %x %d", f.Links[i].LinkIndex, linkBits(&f.Links[i]), f.Links[i].Verdict)
	}
	return b.String()
}

// TestDeltaFramesRoundTripBits: every double goes through the delta
// codec bit for bit — to and from -0, ±Inf, NaN payloads, subnormals,
// MaxFloat64, values one ulp apart or differing only in sign — on
// rounds with gaps, in two streams, with verdicts that change, stay
// and change back. Frames of 200 links are several KiB, so many span
// two of a stream's chunks.
func TestDeltaFramesRoundTripBits(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 1, math.Nextafter(1, 2), -1, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff8000000000001), 5e-324, math.MaxFloat64, 14.25, 16.1, 200}
	links, _ := overBudget(200-DefaultMaxLinks, "")
	rec := New()
	if err := rec.Bind("", links, nil, testVerdicts, 0, testInterval); err != nil {
		t.Fatal(err)
	}
	n := len(values)
	var want []string
	for _, policy := range []string{"dynamic", "static-max"} {
		for r := 0; r < 2*n; r++ {
			f := RoundRecord{Policy: policy, Round: 3*r + len(policy)%2, OfferedGbps: values[r%n], ShippedGbps: values[(r+5)%n],
				CapacityGbps: 400, Changes: r % 3, Links: make([]LinkRecord, len(links))}
			for i := range f.Links {
				v := func(k int) float64 { return values[(r*(i+k+1)+k)%n] }
				f.Links[i] = LinkRecord{LinkIndex: i, SNRdB: v(0), FeasibleGbps: v(1), CapacityGbps: v(2), FakeCapGbps: v(3),
					FakePenalty: v(4), FlowGbps: v(5), FakeFlowGbps: v(6), Verdict: uint8((r/2 + i) % 3)}
			}
			mustRecord(t, rec, f)
			f.Hash = hashRecord(&f)
			want = append(want, frameBits(&f))
		}
	}
	got := loggedFrames(t, rec)
	if len(got) != len(want) {
		t.Fatalf("read %d frames, recorded %d", len(got), len(want))
	}
	for i := range got {
		if g := frameBits(&got[i]); g != want[i] {
			t.Fatalf("frame %d:\ngot  %s\nwant %s", i, g, want[i])
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

// TestReadLogRejectsFormat3: a log whose frames were fixed 57-byte
// rows per link, with no keyframes or deltas, stops at the magic,
// naming both versions.
func TestReadLogRejectsFormat3(t *testing.T) {
	_, err := ReadLog(strings.NewReader("RWCFLT3\nH\x02{}"))
	if err == nil || !strings.Contains(err.Error(), `bad magic "RWCFLT3\n"`) || !strings.Contains(err.Error(), Magic[:7]) {
		t.Fatalf("format-3 log: err = %v", err)
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
		got := obstest.AllocatedBy(func() { log, err = ReadLog(bytes.NewReader(data)) })
		// JSON decodes to a few times its text; 32× leaves room for it.
		// A log that reads also holds its link records, each at least a
		// mask byte on the wire and a LinkRecord in the log: they, and
		// only they, are allowed their own size.
		limit := uint64(1<<20 + 32*len(data))
		if err == nil {
			limit += linkRecordSize * uint64(linkRecords(log))
		}
		if got > limit {
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
