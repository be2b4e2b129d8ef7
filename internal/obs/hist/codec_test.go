package hist

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/container"
)

func archiveFixture() *Archive {
	st := New(Options{Tool: "test", Seed: 42, Retain: 4})
	h := appender(st.Root(), "wan_snr_min_db", []obs.Label{obs.L("policy", "run")}, "gauge")
	for r := 0; r < 10; r++ {
		h(time.Duration(r)*6*time.Hour, 15-float64(r%3))
	}
	appender(st.Root(), "wan_rounds_total", nil, "counter")(0, 1)
	return st.Archive()
}

func TestBinaryRoundTrip(t *testing.T) {
	a := archiveFixture()
	var buf bytes.Buffer
	if err := a.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != a.Meta {
		t.Fatalf("meta round-trip: got %+v want %+v", got.Meta, a.Meta)
	}
	if d := Diff(a, got); d != nil {
		t.Fatalf("round-trip diverged: %v", d)
	}
	// Re-serializing the decoded archive must be byte-identical — this
	// is what lets rwc-replay compare rebuilt artifacts with cmp.
	var buf2 bytes.Buffer
	if err := got.WriteBinary(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-serialization is not byte-identical")
	}
}

// TestReadArchiveWithDroppedKey: archives written while the store had
// a series admission budget could carry a "dropped" header key. They
// still read, to the series they hold.
func TestReadArchiveWithDroppedKey(t *testing.T) {
	a := archiveFixture()
	var buf bytes.Buffer
	cw := container.NewWriter(&buf, Magic)
	old := struct {
		header
		Dropped int `json:"dropped"`
	}{header{Version: codecVersion, Tool: a.Meta.Tool, Seed: a.Meta.Seed, Series: len(a.Series)}, 3}
	if err := cw.JSON(container.HeaderTag, old); err != nil {
		t.Fatal(err)
	}
	for _, s := range a.Series {
		if err := cw.Section(secSeries, appendSeries(nil, s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.JSON(container.TrailerTag, trailer{Series: len(a.Series)}); err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"dropped":3`)) {
		t.Fatal("fixture header lacks the dropped key")
	}
	got, err := ReadArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != a.Meta {
		t.Fatalf("meta = %+v, want %+v", got.Meta, a.Meta)
	}
	if d := Diff(a, got); d != nil {
		t.Fatalf("series diverged: %v", d)
	}
}

func TestWriteDeterministicAcrossShardTopology(t *testing.T) {
	// The same logical samples recorded through different fan-out
	// shapes (flat vs nested children) must serialize byte-identically:
	// the archive carries merged samples only, no shard structure.
	flat := New(Options{Tool: "t", Seed: 7})
	c0 := flat.Root().newChild()
	c1 := flat.Root().newChild()
	nested := New(Options{Tool: "t", Seed: 7})
	n0 := nested.Root().newChild()
	n1 := n0.newChild()

	for r := 0; r < 5; r++ {
		at := time.Duration(r) * time.Hour
		for i, sh := range []*Shard{c0, c1} {
			appender(sh, "g", []obs.Label{obs.L("i", string(rune('a'+i)))}, "gauge")(at, float64(r))
		}
		for i, sh := range []*Shard{n0, n1} {
			appender(sh, "g", []obs.Label{obs.L("i", string(rune('a'+i)))}, "gauge")(at, float64(r))
		}
	}
	var a, b bytes.Buffer
	if err := flat.Archive().WriteBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := nested.Archive().WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("different shard topologies serialized differently")
	}
}

func TestJSONLOutput(t *testing.T) {
	a := archiveFixture()
	var buf bytes.Buffer
	if err := a.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 1+len(a.Series) {
		t.Fatalf("got %d lines, want %d", len(lines), 1+len(a.Series))
	}
	var meta struct {
		Kind   string `json:"kind"`
		Tool   string `json:"tool"`
		Seed   uint64 `json:"seed"`
		Series int    `json:"series"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Kind != "hist_meta" || meta.Tool != "test" || meta.Seed != 42 || meta.Series != 2 {
		t.Fatalf("meta line = %+v", meta)
	}
	var s struct {
		Kind string `json:"kind"`
		Name string `json:"name"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &s); err != nil {
		t.Fatal(err)
	}
	if s.Kind != "series" || s.Name != "wan_rounds_total" {
		t.Fatalf("first series line = %+v, want wan_rounds_total", s)
	}
}

func TestReadArchiveRejectsCorruption(t *testing.T) {
	a := archiveFixture()
	var buf bytes.Buffer
	if err := a.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	if _, err := ReadArchive(bytes.NewReader([]byte("NOTHIST0\n"))); err == nil {
		t.Fatal("bad magic should error")
	}
	// Truncating the trailer must be detected.
	if _, err := ReadArchive(bytes.NewReader(full[:len(full)-4])); err == nil {
		t.Fatal("truncated artifact should error")
	}
	if _, err := ReadArchive(bytes.NewReader(full[:len(Magic)])); err == nil {
		t.Fatal("header-less artifact should error")
	}
}

func TestDiffReporting(t *testing.T) {
	a := archiveFixture()
	b := archiveFixture()
	if d := Diff(a, b); d != nil {
		t.Fatalf("identical archives diverged: %v", d)
	}

	// Value divergence: first differing (series, sim-time) is reported.
	b.Series[1].Samples[3].V += 0.5
	d := Diff(a, b)
	if len(d) != 1 {
		t.Fatalf("got %d entries, want 1: %v", len(d), d)
	}
	if d[0].Key != a.Series[1].Key() {
		t.Fatalf("diverging key = %s", d[0].Key)
	}
	if want := a.Series[1].Samples[3].T.Nanoseconds(); d[0].FirstDivergeNs != want {
		t.Fatalf("first diverge = %dns, want %dns", d[0].FirstDivergeNs, want)
	}
	if !strings.HasPrefix(d[0].String(), "~ ") {
		t.Fatalf("changed entry renders %q", d[0].String())
	}

	// Missing series.
	c := a.Filter(func(s Series) bool { return s.Name != "wan_rounds_total" })
	d = Diff(a, c)
	if len(d) != 1 || !d[0].InA || d[0].InB {
		t.Fatalf("missing-series diff = %+v", d)
	}
	if !strings.HasPrefix(d[0].String(), "- only in a:") {
		t.Fatalf("missing entry renders %q", d[0].String())
	}

	// Equal prefix, shorter tail.
	e := archiveFixture()
	e.Series[1].Samples = e.Series[1].Samples[:2]
	d = Diff(a, e)
	if len(d) != 1 || d[0].FirstDivergeNs != -1 || !strings.Contains(d[0].Detail, "sample count") {
		t.Fatalf("tail diff = %+v", d)
	}
}
