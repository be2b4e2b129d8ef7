package flight

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/container"
	"repro/internal/obs/hist"
)

const testInterval = 6 * time.Hour

func histTestLinks() []Link {
	return []Link{
		{Edge: 0, Name: "SEA->DEN", Fiber: 0},
		{Edge: 1, Name: "DEN->SEA", Fiber: 0},
		{Edge: 2, Name: "DEN->KCY", Fiber: 1},
	}
}

// recordHistFrames records five rounds of one policy and returns them,
// hashed as Record hashes them.
func recordHistFrames(t *testing.T, r *Recorder) []RoundRecord {
	t.Helper()
	var frames []RoundRecord
	if err := r.Bind("", histTestLinks(), nil, testVerdicts, 0, testInterval); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		rec := RoundRecord{Policy: "run", Round: round, OfferedGbps: 100, ShippedGbps: 90}
		for i := range histTestLinks() {
			snr := 15.0
			if round == 3 {
				snr = 11.0
			}
			rec.Links = append(rec.Links, LinkRecord{
				LinkIndex:    i,
				SNRdB:        snr + float64(i),
				CapacityGbps: 100 * float64(i+1),
			})
		}
		mustRecord(t, r, rec)
		rec.Hash = hashRecord(&rec)
		frames = append(frames, rec)
	}
	return frames
}

// TestLogHistoryMatchesHandBuiltArchive: the history rebuilt from a
// written log serializes to the archive built by hand from the
// frames recorded (refArchive), byte for byte.
func TestLogHistoryMatchesHandBuiltArchive(t *testing.T) {
	meta := Meta{Tool: "flight-test", Seed: 42}
	r := New()
	frames := recordHistFrames(t, r)

	var logBuf bytes.Buffer
	if err := r.WriteLog(&logBuf, meta, Trailer{}); err != nil {
		t.Fatal(err)
	}
	l, err := ReadLog(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if l.Runs[0].Interval != testInterval {
		t.Fatalf("run table interval = %v, want %v", l.Runs[0].Interval, testInterval)
	}

	want := refArchive(meta, r.Runs(), frames)
	rebuilt := l.History().Archive()
	var a, b bytes.Buffer
	if err := want.WriteBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("rebuilt history diverges from the hand-built archive:\n%v", hist.Diff(want, rebuilt))
	}
}

// logHistory writes r's log and rebuilds its history.
func logHistory(t *testing.T, r *Recorder) *hist.Store {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteLog(&buf, Meta{}, Trailer{}); err != nil {
		t.Fatal(err)
	}
	l, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return l.History()
}

func TestRecorderHistoryContent(t *testing.T) {
	r := New()
	recordHistFrames(t, r)

	res, err := logHistory(t, r).Query(hist.Query{Selector: `wan_link_snr_db{link="SEA->DEN"}`, ToNs: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d series, want 1", len(res))
	}
	s := res[0].Samples
	if len(s) != 5 {
		t.Fatalf("got %d samples, want 5", len(s))
	}
	if s[3].T != 3*testInterval || s[3].V != 11 {
		t.Fatalf("dip sample = %+v, want t=18h v=11", s[3])
	}
	if res[0].Labels["policy"] != "run" {
		t.Fatalf("labels = %v", res[0].Labels)
	}
}

// TestHistoryHonorsAdmission: Bind admits the first DefaultMaxLinks
// links of a table, in table order, and the run table records that
// count; every link stays in every frame, but the history rebuilt from
// the log has series for the admitted links only, and for no link past
// the budget.
func TestHistoryHonorsAdmission(t *testing.T) {
	r := New()
	links, frame := overBudget(1, "run")
	if err := r.Bind("", links, nil, testVerdicts, 0, testInterval); err != nil {
		t.Fatal(err)
	}
	mustRecord(t, r, frame)
	var buf bytes.Buffer
	if err := r.WriteLog(&buf, Meta{}, Trailer{}); err != nil {
		t.Fatal(err)
	}
	l, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Runs[0].Admitted; got != DefaultMaxLinks {
		t.Fatalf("run table admits %d links, want %d", got, DefaultMaxLinks)
	}
	if got := len(l.Frames[0].Links); got != len(links) {
		t.Fatalf("frame holds %d link rows, want all %d", got, len(links))
	}

	perLink := map[string]int{}
	for _, info := range l.History().Series() {
		perLink[info.Labels["link"]]++
	}
	if len(perLink) != DefaultMaxLinks {
		t.Errorf("history has series for %d links, want %d", len(perLink), DefaultMaxLinks)
	}
	for _, link := range links[:DefaultMaxLinks] {
		if perLink[link.Name] != 2 {
			t.Errorf("admitted link %s has %d series, want snr and capacity", link.Name, perLink[link.Name])
		}
	}
	if n := perLink[links[DefaultMaxLinks].Name]; n != 0 {
		t.Errorf("link %s past the budget has %d series", links[DefaultMaxLinks].Name, n)
	}
}

// TestLogHistoryHoldsOnlyLinkFamilies: the rebuilt history holds the
// two per-link families and nothing else — history records the
// network, not the recorder — and frames the recorder refused (an
// unbound run's, one with no link records) leave no trace in it.
func TestLogHistoryHoldsOnlyLinkFamilies(t *testing.T) {
	r := New()
	recordHistFrames(t, r)
	if r.Record(RoundRecord{Run: "never-bound", Policy: "run"}) == nil {
		t.Fatal("frame for an unbound run accepted")
	}
	if r.Record(RoundRecord{Policy: "run", Round: 5}) == nil {
		t.Fatal("frame without link records accepted")
	}

	infos := logHistory(t, r).Series()
	if len(infos) != 2*len(histTestLinks()) {
		t.Errorf("rebuilt store holds %d series, want the %d per-link ones", len(infos), 2*len(histTestLinks()))
	}
	for _, info := range infos {
		if info.Name != snrFamily && info.Name != capacityFamily {
			t.Errorf("rebuilt store holds %s", info.Name)
		}
		if info.Labels["run"] != "" || info.Total != 5 {
			t.Errorf("rebuilt store holds %s%v with %d samples, want 5 of run \"\"", info.Name, info.Labels, info.Total)
		}
	}
}

// TestRunTimeAxis: each bound run's rebuilt history stamps its rounds
// at its own origin + round × interval, and every run table records its
// axis.
func TestRunTimeAxis(t *testing.T) {
	const origin, interval = 30 * time.Hour, time.Hour
	r := New()
	recordHistFrames(t, r) // run "" at 0 + round × testInterval
	if err := r.Bind("gen2", histTestLinks(), nil, testVerdicts, origin, interval); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		mustRecord(t, r, RoundRecord{Run: "gen2", Policy: "run", Round: round, Links: make([]LinkRecord, len(histTestLinks()))})
	}

	var buf bytes.Buffer
	if err := r.WriteLog(&buf, Meta{}, Trailer{}); err != nil {
		t.Fatal(err)
	}
	l, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Runs; got[0].Origin != 0 || got[0].Interval != testInterval || got[1].Origin != origin || got[1].Interval != interval {
		t.Fatalf("run tables record (origin, interval) = (%v, %v), (%v, %v); want (0, %v), (%v, %v)",
			got[0].Origin, got[0].Interval, got[1].Origin, got[1].Interval, testInterval, origin, interval)
	}
	rebuilt := l.History()
	for run, want := range map[string][]time.Duration{
		"":     {0, testInterval, 2 * testInterval, 3 * testInterval, 4 * testInterval},
		"gen2": {origin, origin + interval, origin + 2*interval},
	} {
		res, err := rebuilt.Query(hist.Query{Selector: `wan_link_snr_db{link="SEA->DEN"}`, ToNs: -1})
		if err != nil {
			t.Fatal(err)
		}
		var got []time.Duration
		for _, series := range res {
			if series.Labels["run"] != run {
				continue
			}
			for _, s := range series.Samples {
				got = append(got, s.T)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %q stamped at %v, want %v", run, got, want)
		}
	}
}

// TestHistoryNeedsAnInterval: a run's history is stamped on its own
// time axis, so a run needs a positive round interval — Bind refuses
// one without, and ReadLog refuses a run table that records none.
func TestHistoryNeedsAnInterval(t *testing.T) {
	for _, interval := range []time.Duration{0, -time.Hour} {
		if err := New().Bind("fig", histTestLinks(), nil, testVerdicts, 0, interval); err == nil {
			t.Errorf("Bind accepted round interval %v", interval)
		}
	}
	logWithRun := func(run string) []byte {
		var buf bytes.Buffer
		cw := container.NewWriter(&buf, Magic)
		for _, err := range []error{
			cw.JSON(container.HeaderTag, header{}),
			cw.Section(secRun, []byte(run)),
			cw.Section(container.TrailerTag, []byte{0, 0}),
			cw.Flush(),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	for _, run := range []string{`{"name":"fig"}`, `{"name":"fig","interval_ns":0}`, `{"name":"fig","interval_ns":-1}`} {
		if _, err := ReadLog(bytes.NewReader(logWithRun(run))); err == nil || !strings.Contains(err.Error(), "round interval") {
			t.Errorf("run table %s: err = %v, want the interval refused", run, err)
		}
	}
	l, err := ReadLog(bytes.NewReader(logWithRun(`{"name":"fig","interval_ns":3600000000000}`)))
	if err != nil || l.Runs[0].Interval != time.Hour {
		t.Fatalf("run table with a 1h interval: %v, %+v", err, l)
	}
}
