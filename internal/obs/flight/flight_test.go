package flight

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

func testLinks() []Link {
	return []Link{
		{Edge: 0, Name: "a->b", Fiber: 0},
		{Edge: 1, Name: "b->a", Fiber: 0},
		{Edge: 2, Name: "b->c", Fiber: 1},
	}
}

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
			{LinkIndex: 0, SNRdB: 16.1, TierGbps: 200, FeasibleGbps: 400, CapacityGbps: 200,
				Fake: true, FakeCapGbps: 200, FakePenalty: 1, FlowGbps: 150, FakeFlowGbps: 50, ResidualGbps: 150,
				Verdict: VerdictUpgrade},
			{LinkIndex: 1, SNRdB: 7.2 + vary, TierGbps: 100, FeasibleGbps: 200, CapacityGbps: 200,
				FlowGbps: 80, Verdict: VerdictSteady},
			{LinkIndex: 2, SNRdB: 2.1, TierGbps: 0, FeasibleGbps: 0, CapacityGbps: 0,
				Verdict: VerdictDark},
		},
	}
}

// record binds and fills a recorder with rounds×policies frames.
func record(t *testing.T, opt Options, rounds int, policies ...string) *Recorder {
	t.Helper()
	rec := New(opt)
	if err := rec.Bind("", testLinks(), testLadder()); err != nil {
		t.Fatal(err)
	}
	for _, p := range policies {
		for r := 0; r < rounds; r++ {
			rec.Record(testFrame(p, r, 0))
		}
	}
	return rec
}

func TestLogRoundTrip(t *testing.T) {
	rec := record(t, Options{}, 4, "dynamic", "static-100G")
	o := obs.New("flight-test")
	o.Counter("demo_total", "demo").Add(7)
	o.Event("demo.event", obs.A("round", 3))

	var buf bytes.Buffer
	if err := rec.WriteLog(&buf, Meta{Tool: "flight-test", Seed: 42}, o); err != nil {
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
	if len(log.Trailer.Metrics.Families) == 0 {
		t.Fatal("trailer lost the metrics dump")
	}
	if len(log.Trailer.Trace) != 1 {
		t.Fatalf("trailer has %d trace lines, want 1", len(log.Trailer.Trace))
	}

	// Same recorder, second write: byte-identical (no hidden state).
	var buf2 bytes.Buffer
	if err := rec.WriteLog(&buf2, Meta{Tool: "flight-test", Seed: 42}, o); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two writes of the same recorder differ")
	}
}

func TestLogRecordOrderIndependence(t *testing.T) {
	// Frames recorded in opposite interleavings must produce identical
	// logs: canonical sort + deterministic series rebuild.
	mk := func(reverse bool) []byte {
		rec := New(Options{})
		if err := rec.Bind("", testLinks(), testLadder()); err != nil {
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
			rec.Record(f)
		}
		var buf bytes.Buffer
		if err := rec.WriteLog(&buf, Meta{}, nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(mk(false), mk(true)) {
		t.Fatal("log bytes depend on Record interleaving")
	}
}

func TestJSONLExport(t *testing.T) {
	rec := record(t, Options{}, 2, "dynamic")
	var buf bytes.Buffer
	if err := rec.WriteLog(&buf, Meta{}, nil); err != nil {
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
	if !strings.Contains(lines[0], `"verdict":"upgrade"`) {
		t.Errorf("verdicts not rendered: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"round":1`) {
		t.Errorf("rounds not ordered: %s", lines[1])
	}
}

func TestCardinalityBudgetDropsDeterministically(t *testing.T) {
	rec := New(Options{MaxLinks: 2})
	if err := rec.Bind("", testLinks(), testLadder()); err != nil {
		t.Fatal(err)
	}
	rec.Record(testFrame("dynamic", 0, 0))

	totals := rec.Registry().Totals()
	if got := totals["obs_flight_links_dropped_total"]; got != 1 {
		t.Fatalf("dropped counter = %v, want 1 (3 links, budget 2)", got)
	}
	// Admission is table order: links 0 and 1 have series, link 2 none.
	for _, name := range []string{"a->b", "b->a"} {
		key := fmt.Sprintf("wan_link_snr_db{link=%q,policy=\"dynamic\"}", name)
		if _, ok := totals[key]; !ok {
			t.Errorf("missing admitted series %s (have %v)", key, keys(totals))
		}
	}
	for key := range totals {
		if strings.Contains(key, "b->c") {
			t.Errorf("dropped link leaked into registry: %s", key)
		}
	}

	// The trailer's deterministic rebuild agrees with the live registry.
	var buf bytes.Buffer
	if err := rec.WriteLog(&buf, Meta{}, nil); err != nil {
		t.Fatal(err)
	}
	log, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := log.Trailer.Series.Restore().Totals(); !reflect.DeepEqual(got, totals) {
		t.Fatalf("trailer series diverge from live registry:\n got %v\nwant %v", got, totals)
	}
}

func keys(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestHostileLinkNamesRoundTripPrometheus(t *testing.T) {
	hostile := []Link{
		{Edge: 0, Name: `quo"te->ba\ck`, Fiber: 0},
		{Edge: 1, Name: "new\nline->tab\t", Fiber: 0},
		{Edge: 2, Name: "sëa→dênvér", Fiber: 1},
	}
	rec := New(Options{})
	if err := rec.Bind("", hostile, nil); err != nil {
		t.Fatal(err)
	}
	fr := testFrame("dynamic", 0, 0)
	rec.Record(fr)

	var expo bytes.Buffer
	if err := rec.Registry().WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParsePrometheusText(strings.NewReader(expo.String()))
	if err != nil {
		t.Fatalf("hostile names broke the exposition: %v\n%s", err, expo.String())
	}
	parsed := make(map[string]float64, len(samples))
	for _, s := range samples {
		parsed[s.Key()] = s.Value
	}
	if want := rec.Registry().Totals(); !reflect.DeepEqual(parsed, want) {
		t.Fatalf("parse round-trip diverges:\n got %v\nwant %v", parsed, want)
	}
	// Every hostile name must survive the round trip.
	for _, link := range hostile {
		found := false
		for _, s := range samples {
			for _, l := range s.Labels {
				if l.Key == "link" && l.Value == link.Name {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("link %q lost in exposition round-trip", link.Name)
		}
	}

	// And through the binary log + JSONL export.
	var buf bytes.Buffer
	if err := rec.WriteLog(&buf, Meta{}, nil); err != nil {
		t.Fatal(err)
	}
	log, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(log.Runs[0].Links, hostile) {
		t.Fatalf("hostile link table mangled: %+v", log.Runs[0].Links)
	}
	var jl bytes.Buffer
	if err := log.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var rec *Recorder
	if err := rec.Bind("", testLinks(), nil); err != nil {
		t.Fatal(err)
	}
	rec.Record(testFrame("dynamic", 0, 0)) // must not panic
	if rec.Frames() != nil || rec.Recent(5) != nil || rec.Runs() != nil || rec.Registry() != nil {
		t.Fatal("nil recorder leaked state")
	}
}

func TestRecordUnboundRunDropsLoudly(t *testing.T) {
	rec := New(Options{})
	rec.Record(testFrame("dynamic", 0, 0)) // "" never bound
	if got := rec.Registry().Totals()["obs_flight_unbound_frames_total"]; got != 1 {
		t.Fatalf("unbound counter = %v, want 1", got)
	}
	if len(rec.Frames()) != 0 {
		t.Fatal("unbound frame was kept")
	}
}

func TestRebindChecksTable(t *testing.T) {
	rec := New(Options{})
	if err := rec.Bind("", testLinks(), nil); err != nil {
		t.Fatal(err)
	}
	if err := rec.Bind("", testLinks(), nil); err != nil {
		t.Fatalf("identical re-bind rejected: %v", err)
	}
	other := testLinks()
	other[1].Name = "renamed"
	if err := rec.Bind("", other, nil); err == nil {
		t.Fatal("conflicting re-bind accepted")
	}
	if err := rec.Bind("", other[:2], nil); err == nil {
		t.Fatal("shorter re-bind accepted")
	}
}

func TestRecentRingWindow(t *testing.T) {
	rec := New(Options{Ring: 4})
	if err := rec.Bind("", testLinks(), nil); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 10; r++ {
		rec.Record(testFrame("dynamic", r, 0))
	}
	recent := rec.Recent(4)
	if len(recent) != 4 {
		t.Fatalf("recent = %d frames, want 4", len(recent))
	}
	for i, fr := range recent {
		if fr.Round != 6+i {
			t.Fatalf("recent[%d].Round = %d, want %d", i, fr.Round, 6+i)
		}
	}
	if got := rec.Recent(2); len(got) != 2 || got[1].Round != 9 {
		t.Fatalf("recent(2) = %+v", got)
	}
}

func TestReadLogRejectsCorruption(t *testing.T) {
	rec := record(t, Options{}, 2, "dynamic")
	var buf bytes.Buffer
	if err := rec.WriteLog(&buf, Meta{}, nil); err != nil {
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
