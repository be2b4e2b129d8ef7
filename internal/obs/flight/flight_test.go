package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gate"
	"repro/internal/obs"
	"repro/internal/obs/hist"
)

func testLinks() []Link {
	return []Link{
		{Edge: 0, Name: "a->b", Fiber: 0},
		{Edge: 1, Name: "b->a", Fiber: 0},
		{Edge: 2, Name: "b->c", Fiber: 1},
	}
}

// testVerdicts are the names the wan simulator binds its runs with.
var testVerdicts = gate.VerdictNames[:]

func testLadder() []LadderRung {
	return []LadderRung{
		{Gbps: 50, MinSNRdB: 3, Format: "DP-QPSK"},
		{Gbps: 100, MinSNRdB: 6.5, Format: "DP-16QAM"},
		{Gbps: 200, MinSNRdB: 15.5, Format: "DP-64QAM"},
	}
}

// testFrame builds a plausible frame for round r; vary tweaks link 1.
func testFrame(policy string, r int, vary float64) RoundRecord {
	return RoundRecord{
		Policy:       policy,
		Round:        r,
		OfferedGbps:  300,
		ShippedGbps:  250 + float64(r),
		CapacityGbps: 400,
		Changes:      r % 2,
		Links: []LinkRecord{
			{LinkIndex: 0, SNRdB: 16.1, FeasibleGbps: 400, CapacityGbps: 200,
				FakeCapGbps: 200, FakePenalty: 1, FlowGbps: 150, FakeFlowGbps: 50,
				Verdict: uint8(gate.VerdictUpgraded)},
			{LinkIndex: 1, SNRdB: 7.2 + vary, FeasibleGbps: 200, CapacityGbps: 200,
				FlowGbps: 80, Verdict: uint8(gate.VerdictSteady)},
			{LinkIndex: 2, SNRdB: 2.1, FeasibleGbps: 0, CapacityGbps: 0,
				Verdict: uint8(gate.VerdictForcedDowngrade)},
		},
	}
}

// mustRecord records frame, failing the test if the recorder refuses
// it.
func mustRecord(t *testing.T, r *Recorder, frame RoundRecord) {
	t.Helper()
	if err := r.Record(frame); err != nil {
		t.Fatal(err)
	}
}

// record binds and fills a recorder with rounds×policies frames.
func record(t *testing.T, rounds int, policies ...string) *Recorder {
	t.Helper()
	rec := New()
	if err := rec.Bind("", testLinks(), testLadder(), testVerdicts, 0, testInterval); err != nil {
		t.Fatal(err)
	}
	for _, p := range policies {
		for r := 0; r < rounds; r++ {
			mustRecord(t, rec, testFrame(p, r, 0))
		}
	}
	return rec
}

// trailer renders o as a flight log trailer.
func trailer(t *testing.T, o *obs.Obs) Trailer {
	t.Helper()
	tr, err := TrailerOf(o)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestLogRoundTrip(t *testing.T) {
	rec := record(t, 4, "dynamic", "static-100G")
	o := obs.New()
	o.Counter("demo_total", "demo").Add(7)
	o.Event("demo.event", obs.A("round", 3))

	var buf bytes.Buffer
	if err := rec.WriteLog(&buf, Meta{Tool: "flight-test", Seed: 42}, trailer(t, o)); err != nil {
		t.Fatal(err)
	}
	log, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if log.Meta.Tool != "flight-test" || log.Meta.Seed != 42 {
		t.Fatalf("meta = %+v", log.Meta)
	}
	if len(log.Runs) != 1 || len(log.Runs[0].Links) != 3 || log.Runs[0].Admitted != 3 {
		t.Fatalf("runs = %+v", log.Runs)
	}
	if len(log.Runs[0].Ladder) != 3 {
		t.Fatalf("ladder not preserved: %+v", log.Runs[0].Ladder)
	}
	want := rec.Frames()
	if !reflect.DeepEqual(log.Frames, want) {
		t.Fatalf("frames do not round-trip:\ngot  %+v\nwant %+v", log.Frames, want)
	}
	if err := log.VerifyHashes(); err != nil {
		t.Fatalf("hashes do not verify: %v", err)
	}
	var metrics, trace bytes.Buffer
	if err := o.Metrics.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	if err := o.Trace.WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(log.Trailer.Metrics, metrics.Bytes()) || !bytes.Equal(log.Trailer.Trace, trace.Bytes()) {
		t.Fatalf("trailer holds metrics %q, trace %q; want the run's own %q, %q",
			log.Trailer.Metrics, log.Trailer.Trace, metrics.Bytes(), trace.Bytes())
	}
	if bytes.Count(log.Trailer.Trace, []byte("\n")) != 1 {
		t.Fatalf("trailer trace %q, want one line", log.Trailer.Trace)
	}

	// Same recorder, second write: byte-identical (no hidden state).
	var buf2 bytes.Buffer
	if err := rec.WriteLog(&buf2, Meta{Tool: "flight-test", Seed: 42}, trailer(t, o)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two writes of the same recorder differ")
	}
}

// TestLogKeepsFullWidthSeed: a run seed is a uint64 everywhere; one
// at or above 2^63 reaches the header, the replay summary and the
// rebuilt history archive unchanged, not as a negative int64.
func TestLogKeepsFullWidthSeed(t *testing.T) {
	var buf bytes.Buffer
	if err := record(t, 2, "dynamic").WriteLog(&buf, Meta{Tool: "flight-test", Seed: math.MaxUint64}, Trailer{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"seed":18446744073709551615`)) {
		t.Fatal("header does not hold seed 18446744073709551615")
	}
	log, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if log.Meta.Seed != math.MaxUint64 {
		t.Fatalf("meta seed = %d", log.Meta.Seed)
	}
	if s := log.Summary(); !strings.Contains(s, "seed 18446744073709551615,") {
		t.Fatalf("summary does not print the seed:\n%s", s)
	}
	if got := log.History().Archive().Meta.Seed; got != math.MaxUint64 {
		t.Fatalf("rebuilt history seed = %d", got)
	}
}

func TestLogRecordOrderIndependence(t *testing.T) {
	// Frames recorded in opposite interleavings must produce identical
	// logs: canonical sort + deterministic series rebuild.
	mk := func(reverse bool) []byte {
		rec := New()
		if err := rec.Bind("", testLinks(), testLadder(), testVerdicts, 0, testInterval); err != nil {
			t.Fatal(err)
		}
		var frames []RoundRecord
		for _, p := range []string{"dynamic", "static-100G"} {
			for r := 0; r < 3; r++ {
				frames = append(frames, testFrame(p, r, 0))
			}
		}
		if reverse {
			for i, j := 0, len(frames)-1; i < j; i, j = i+1, j-1 {
				frames[i], frames[j] = frames[j], frames[i]
			}
		}
		for _, f := range frames {
			mustRecord(t, rec, f)
		}
		var buf bytes.Buffer
		if err := rec.WriteLog(&buf, Meta{}, Trailer{}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(mk(false), mk(true)) {
		t.Fatal("log bytes depend on Record interleaving")
	}
}

func TestJSONLExport(t *testing.T) {
	rec := record(t, 2, "dynamic")
	var buf bytes.Buffer
	if err := rec.WriteLog(&buf, Meta{}, Trailer{}); err != nil {
		t.Fatal(err)
	}
	log, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var jl bytes.Buffer
	if err := log.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(jl.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL has %d lines, want 2", len(lines))
	}
	// encoding/json escapes '>' as \u003e.
	if !strings.Contains(lines[0], `"link":"a-\u003eb"`) {
		t.Errorf("link names not resolved: %s", lines[0])
	}
	if !strings.Contains(lines[0], `"verdict":"upgraded"`) {
		t.Errorf("verdicts not rendered: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"round":1`) {
		t.Errorf("rounds not ordered: %s", lines[1])
	}
}

// overBudget returns DefaultMaxLinks+extra links and a round-0 frame of
// policy that carries every one of them.
func overBudget(extra int, policy string) ([]Link, RoundRecord) {
	links := make([]Link, DefaultMaxLinks+extra)
	rec := RoundRecord{Policy: policy, Links: make([]LinkRecord, len(links))}
	for i := range links {
		links[i] = Link{Edge: i, Name: fmt.Sprintf("N%d->N%d", i, i+1), Fiber: i / 2}
		rec.Links[i] = LinkRecord{LinkIndex: i, SNRdB: 14, CapacityGbps: 200}
	}
	return links, rec
}

// TestCardinalityBudgetDropsDeterministically: the budget admits by
// table position, never by name or arrival, so the link it drops is
// the one past DefaultMaxLinks in the table it was bound with —
// reversing the table drops the other end — and the run table records
// the admitted count either way.
func TestCardinalityBudgetDropsDeterministically(t *testing.T) {
	links, frame := overBudget(1, "dynamic")
	reversed := make([]Link, len(links))
	for i, l := range links {
		reversed[len(links)-1-i] = l
	}
	for _, tc := range []struct {
		name    string
		table   []Link
		dropped string
	}{
		{"table order", links, links[DefaultMaxLinks].Name},
		{"reversed", reversed, links[0].Name},
	} {
		rec := New()
		if err := rec.Bind("", tc.table, testLadder(), testVerdicts, 0, testInterval); err != nil {
			t.Fatal(err)
		}
		mustRecord(t, rec, frame)
		if got := rec.Runs()[0].Admitted; got != DefaultMaxLinks {
			t.Fatalf("%s: run table admits %d links, want %d", tc.name, got, DefaultMaxLinks)
		}
		seen := map[string]bool{}
		for _, info := range logHistory(t, rec).Series() {
			seen[info.Labels["link"]] = true
		}
		for _, l := range tc.table[:DefaultMaxLinks] {
			if !seen[l.Name] {
				t.Errorf("%s: admitted link %s has no history series", tc.name, l.Name)
			}
		}
		if seen[tc.dropped] {
			t.Errorf("%s: link %s past the budget has history series", tc.name, tc.dropped)
		}
	}
}

// TestHostileLinkNamesRoundTripHistory: link names with quotes,
// backslashes, control characters and non-ASCII runes survive the
// binary log, the history rebuilt from it through the archive codec,
// and the JSONL export.
func TestHostileLinkNamesRoundTripHistory(t *testing.T) {
	hostile := []Link{
		{Edge: 0, Name: `quo"te->ba\ck`, Fiber: 0},
		{Edge: 1, Name: "new\nline->tab\t", Fiber: 0},
		{Edge: 2, Name: "sëa→dênvér", Fiber: 1},
	}
	rec := New()
	if err := rec.Bind("", hostile, nil, testVerdicts, 0, testInterval); err != nil {
		t.Fatal(err)
	}
	mustRecord(t, rec, testFrame("dynamic", 0, 0))
	var buf bytes.Buffer
	if err := rec.WriteLog(&buf, Meta{}, Trailer{}); err != nil {
		t.Fatal(err)
	}
	log, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(log.Runs[0].Links, hostile) {
		t.Fatalf("hostile link table mangled: %+v", log.Runs[0].Links)
	}

	want := log.History().Archive()
	var archive bytes.Buffer
	if err := want.WriteBinary(&archive); err != nil {
		t.Fatal(err)
	}
	got, err := hist.ReadArchive(&archive)
	if err != nil {
		t.Fatalf("hostile names broke the history archive: %v", err)
	}
	if d := hist.Diff(want, got); len(d) != 0 {
		t.Fatalf("archive round-trip diverges: %v", d)
	}
	names := map[string]int{}
	for _, s := range got.Series {
		for _, l := range s.Labels {
			if l.Key == "link" {
				names[l.Value]++
			}
		}
	}
	for _, link := range hostile {
		if names[link.Name] != 2 {
			t.Errorf("link %q has %d history series after the archive round-trip, want 2", link.Name, names[link.Name])
		}
	}

	var jl bytes.Buffer
	if err := log.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	var frame struct{ Links []struct{ Link string } }
	if err := json.Unmarshal(jl.Bytes(), &frame); err != nil {
		t.Fatalf("hostile names broke the JSONL export: %v", err)
	}
	for i, link := range hostile {
		if i >= len(frame.Links) || frame.Links[i].Link != link.Name {
			t.Errorf("JSONL row %d = %+v, want link %q", i, frame.Links, link.Name)
		}
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var rec *Recorder
	if err := rec.Bind("", testLinks(), nil, testVerdicts, 0, testInterval); err != nil {
		t.Fatal(err)
	}
	mustRecord(t, rec, testFrame("dynamic", 0, 0))
	if rec.Frames() != nil || rec.Runs() != nil {
		t.Fatal("nil recorder leaked state")
	}
}

// TestRecordUnboundRunDropsLoudly: a frame for a run never bound is an
// error, and the log does not hold it.
func TestRecordUnboundRunDropsLoudly(t *testing.T) {
	rec := New()
	if err := rec.Record(testFrame("dynamic", 0, 0)); err == nil || !strings.Contains(err.Error(), "never bound") {
		t.Fatalf("frame for an unbound run: err = %v", err)
	}
	if len(rec.Frames()) != 0 {
		t.Fatal("unbound frame was kept")
	}
}

// TestRecordShortFrameDropsLoudly: a frame must carry one record per
// link of its run's table; one short of that is an error and is not
// kept, and the frames around it are.
func TestRecordShortFrameDropsLoudly(t *testing.T) {
	rec := record(t, 1, "dynamic")
	short := testFrame("dynamic", 1, 0)
	short.Links = short.Links[:len(short.Links)-1]
	if err := rec.Record(short); err == nil || !strings.Contains(err.Error(), "2 link records, want 3") {
		t.Fatalf("short frame: err = %v", err)
	}
	mustRecord(t, rec, testFrame("dynamic", 2, 0))
	if frames := rec.Frames(); len(frames) != 2 || frames[0].Round != 0 || frames[1].Round != 2 {
		t.Fatalf("kept %d frames, want rounds 0 and 2: %+v", len(frames), frames)
	}
}

func TestRebindChecksTable(t *testing.T) {
	rec := New()
	if err := rec.Bind("", testLinks(), nil, testVerdicts, 0, testInterval); err != nil {
		t.Fatal(err)
	}
	if err := rec.Bind("", testLinks(), nil, testVerdicts, 0, testInterval); err != nil {
		t.Fatalf("identical re-bind rejected: %v", err)
	}
	other := testLinks()
	other[1].Name = "renamed"
	if err := rec.Bind("", other, nil, testVerdicts, 0, testInterval); err == nil {
		t.Fatal("conflicting re-bind accepted")
	}
	if err := rec.Bind("", other[:2], nil, testVerdicts, 0, testInterval); err == nil {
		t.Fatal("shorter re-bind accepted")
	}
}

func TestReadLogRejectsCorruption(t *testing.T) {
	rec := record(t, 2, "dynamic")
	var buf bytes.Buffer
	if err := rec.WriteLog(&buf, Meta{}, Trailer{}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	if _, err := ReadLog(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Error("truncated log accepted")
	}
	flipped := append([]byte(nil), raw...)
	flipped[3] ^= 0xff
	if _, err := ReadLog(bytes.NewReader(flipped)); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadLog(bytes.NewReader([]byte(Magic))); err == nil {
		t.Error("header-less log accepted")
	}

	// A flipped payload byte must fail hash verification (if it even
	// decodes). Flip a byte well inside the first frame section.
	for off := len(Magic) + 40; off < len(raw)-40; off++ {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x01
		log, err := ReadLog(bytes.NewReader(mut))
		if err != nil {
			continue // structural rejection is fine too
		}
		if err := log.VerifyHashes(); err == nil && bytes.Equal(mut, raw) == false {
			// Flips inside the trailer JSON don't touch frames; only
			// complain when a frame field changed silently.
			want := rec.Frames()
			if !reflect.DeepEqual(log.Frames, want) {
				t.Fatalf("flipped byte at %d changed frames but hashes verify", off)
			}
		}
		break
	}
}

// knownRecords are fixed frames whose digests
// TestHashRecordKnownAnswers pins: an empty one, one without links,
// and one whose links carry -0, ±Inf, NaN, a subnormal and the
// verdicts 0, 2 and 255.
func knownRecords() []RoundRecord {
	return []RoundRecord{
		{},
		{Run: "gen2", Policy: "dynamic", Round: 7, OfferedGbps: 6758.4, ShippedGbps: 1292.9, CapacityGbps: 5600, Changes: 3},
		{
			Policy: "static-100G", Round: 27, OfferedGbps: 25770.9, ShippedGbps: 680.25, CapacityGbps: 119600, Changes: -1,
			Links: []LinkRecord{
				{LinkIndex: 5, SNRdB: 14.25, FeasibleGbps: 200, CapacityGbps: 150, FakeCapGbps: 50, FakePenalty: 1e6, FlowGbps: 149.875, FakeFlowGbps: 0.125, Verdict: 2},
				{SNRdB: math.Copysign(0, -1), FeasibleGbps: math.Inf(1), CapacityGbps: math.Inf(-1), FakePenalty: math.NaN(), FlowGbps: 5e-324, FakeFlowGbps: math.MaxFloat64, Verdict: 255},
				{SNRdB: -3.5, Verdict: 0},
			},
		},
	}
}

// TestHashRecordKnownAnswers pins hashRecord's digests of knownRecords,
// as the canonical FNV-64a writer computed them one byte at a time.
// VerifyHashes recomputes with the same function, so it cannot see a
// change to the digest; these values can, and a flight log written by
// an older build must keep verifying.
func TestHashRecordKnownAnswers(t *testing.T) {
	want := []uint64{0xb9b23f3a46fd0825, 0xdaf7528cf5afac0f, 0x453d4af48920ecbd}
	for i, rec := range knownRecords() {
		if got := hashRecord(&rec); got != want[i] {
			t.Errorf("record %d: hashRecord = %#x, want %#x", i, got, want[i])
		}
	}
}
