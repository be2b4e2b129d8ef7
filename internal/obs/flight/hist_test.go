package flight

import (
	"bytes"
	"testing"
	"time"

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
	if err := r.Bind("", histTestLinks(), nil); err != nil {
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
	meta := Meta{Tool: "flight-test", Seed: 42, Interval: testInterval}
	live := hist.New(hist.Options{Tool: meta.Tool, Seed: uint64(meta.Seed)})
	r := New(Options{})
	r.SetHistory(live.Root(), testInterval)
	recordHistFrames(t, r)

	var logBuf bytes.Buffer
	if err := r.WriteLog(&logBuf, meta, nil); err != nil {
		t.Fatal(err)
	}
	l, err := ReadLog(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if l.Meta.Interval != testInterval {
		t.Fatalf("header interval = %v, want %v", l.Meta.Interval, testInterval)
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
	r := New(Options{})
	r.SetHistory(st.Root().NewChild(), testInterval)
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

// TestHistoryHonorsAdmission: links past the recorder's MaxLinks
// budget get no history series, exactly like their registry gauges.
func TestHistoryHonorsAdmission(t *testing.T) {
	st := hist.New(hist.Options{})
	r := New(Options{MaxLinks: 1})
	r.SetHistory(st.Root(), testInterval)
	recordHistFrames(t, r)

	infos := st.Series()
	// Only link index 0 is admitted → 2 series (snr + capacity).
	if len(infos) != 2 {
		t.Fatalf("got %d series, want 2: %+v", len(infos), infos)
	}
	for _, info := range infos {
		if info.Labels["link"] != "SEA->DEN" {
			t.Fatalf("unexpected series %s{%v}", info.Name, info.Labels)
		}
	}
}

func TestSetHistoryNilSafe(t *testing.T) {
	var r *Recorder
	r.SetHistory(nil, testInterval) // nil recorder
	r2 := New(Options{})
	r2.SetHistory(nil, testInterval) // nil shard
	if err := r2.Bind("", histTestLinks(), nil); err != nil {
		t.Fatal(err)
	}
	r2.Record(RoundRecord{Policy: "run", Round: 0}) // must not panic
}
