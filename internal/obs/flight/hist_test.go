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

func recordHistFrames(t *testing.T, r *Recorder) {
	t.Helper()
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
		r.Record(rec)
	}
}

// TestLogHistoryMatchesLiveHistory is the flight ⊇ history regression:
// a store populated live through Recorder.SetHistory and one rebuilt
// from the written log's frames serialize byte-identically.
func TestLogHistoryMatchesLiveHistory(t *testing.T) {
	meta := Meta{Tool: "flight-test", Seed: 42}
	live := hist.New(hist.Options{Tool: meta.Tool, Seed: meta.Seed})
	r := New()
	r.SetHistory(live.Root())
	recordHistFrames(t, r)

	var logBuf bytes.Buffer
	if err := r.WriteLog(&logBuf, meta, nil); err != nil {
		t.Fatal(err)
	}
	l, err := ReadLog(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if l.Runs[0].Interval != testInterval {
		t.Fatalf("run table interval = %v, want %v", l.Runs[0].Interval, testInterval)
	}

	rebuilt := l.History()
	var a, b bytes.Buffer
	if err := live.Archive().WriteBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.Archive().WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("rebuilt history diverges from live:\n%v",
			hist.Diff(live.Archive(), rebuilt.Archive()))
	}
}

func TestRecorderHistoryContent(t *testing.T) {
	st := hist.New(hist.Options{})
	r := New()
	r.SetHistory(st.Root().NewChild())
	recordHistFrames(t, r)

	res, err := st.Query(hist.Query{Selector: `wan_link_snr_db{link="SEA->DEN"}`, ToNs: -1})
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

// TestHistoryHonorsAdmission: links past the recorder's DefaultMaxLinks
// budget get no history series, exactly like their registry gauges.
func TestHistoryHonorsAdmission(t *testing.T) {
	st := hist.New(hist.Options{})
	r := New()
	r.SetHistory(st.Root())
	links, frame := overBudget(1, "run")
	if err := r.Bind("", links, nil, testVerdicts, 0, testInterval); err != nil {
		t.Fatal(err)
	}
	r.Record(frame)

	infos := st.Series()
	// Only the first DefaultMaxLinks links are admitted → 2 series each
	// (snr + capacity).
	if len(infos) != 2*DefaultMaxLinks {
		t.Fatalf("got %d series, want %d", len(infos), 2*DefaultMaxLinks)
	}
	for _, info := range infos {
		if info.Labels["link"] == links[DefaultMaxLinks].Name {
			t.Fatalf("unexpected series %s{%v}", info.Name, info.Labels)
		}
	}
}

func TestSetHistoryNilSafe(t *testing.T) {
	var r *Recorder
	r.SetHistory(nil) // nil recorder
	r2 := New()
	r2.SetHistory(nil) // nil shard
	if err := r2.Bind("", histTestLinks(), nil, testVerdicts, 0, testInterval); err != nil {
		t.Fatal(err)
	}
	r2.Record(RoundRecord{Policy: "run", Round: 0}) // must not panic
}

// TestRecorderCountersStayOutOfHistory: the recorder's own counters —
// links dropped by the budget, frames captured, frames for unbound runs
// or with the wrong number of link records — share its registry with the per-link gauges but never enter the
// store, live or rebuilt: history records the network, not the recorder.
func TestRecorderCountersStayOutOfHistory(t *testing.T) {
	st := hist.New(hist.Options{})
	r := New()
	r.SetHistory(st.Root()) // before Bind: the dropped counter registers with the sink attached
	links, frame := overBudget(1, "run")
	if err := r.Bind("", links, nil, testVerdicts, 0, testInterval); err != nil {
		t.Fatal(err)
	}
	r.Record(frame)
	r.Record(RoundRecord{Run: "never-bound", Policy: "run"})
	r.Record(RoundRecord{Policy: "run", Round: 1}) // no link records
	totals := r.Registry().Totals()
	for _, name := range []string{"obs_flight_links_dropped_total", "obs_flight_frames_total",
		"obs_flight_unbound_frames_total", "obs_flight_malformed_frames_total"} {
		if totals[name] == 0 {
			t.Fatalf("%s not recorded, so the check below proves nothing: %v", name, totals)
		}
	}

	var buf bytes.Buffer
	if err := r.WriteLog(&buf, Meta{}, nil); err != nil {
		t.Fatal(err)
	}
	l, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := l.History()
	for name, store := range map[string]*hist.Store{"live": st, "rebuilt": rebuilt} {
		infos := store.Series()
		if len(infos) != 2*DefaultMaxLinks {
			t.Errorf("%s store holds %d series, want the %d per-link ones", name, len(infos), 2*DefaultMaxLinks)
		}
		for _, info := range infos {
			if info.Name != snrFamily && info.Name != capacityFamily {
				t.Errorf("%s store holds %s", name, info.Name)
			}
		}
	}
}

// TestRunTimeAxis: each bound run stamps its rounds at its own origin +
// round × interval, live and rebuilt alike, and every run table records
// its axis.
func TestRunTimeAxis(t *testing.T) {
	const origin, interval = 30 * time.Hour, time.Hour
	live := hist.New(hist.Options{})
	r := New()
	r.SetHistory(live.Root())
	recordHistFrames(t, r) // run "" at 0 + round × testInterval
	if err := r.Bind("gen2", histTestLinks(), nil, testVerdicts, origin, interval); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		r.Record(RoundRecord{Run: "gen2", Policy: "run", Round: round, Links: make([]LinkRecord, len(histTestLinks()))})
	}

	var buf bytes.Buffer
	if err := r.WriteLog(&buf, Meta{}, nil); err != nil {
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
	for name, store := range map[string]*hist.Store{"live": live, "rebuilt": rebuilt} {
		for run, want := range map[string][]time.Duration{
			"":     {0, testInterval, 2 * testInterval, 3 * testInterval, 4 * testInterval},
			"gen2": {origin, origin + interval, origin + 2*interval},
		} {
			res, err := store.Query(hist.Query{Selector: `wan_link_snr_db{link="SEA->DEN"}`, ToNs: -1})
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
				t.Errorf("%s run %q stamped at %v, want %v", name, run, got, want)
			}
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
