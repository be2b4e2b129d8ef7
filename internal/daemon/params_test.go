package daemon

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestDurationJSONRoundTrip(t *testing.T) {
	d := Duration(6 * time.Hour)
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"6h0m0s"` {
		t.Fatalf("marshal = %s, want \"6h0m0s\"", b)
	}
	var back Duration
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Fatalf("round trip = %v, want %v", back, d)
	}
	// Plain nanosecond numbers are accepted too.
	if err := json.Unmarshal([]byte("250000000"), &back); err != nil {
		t.Fatal(err)
	}
	if time.Duration(back) != 250*time.Millisecond {
		t.Fatalf("numeric form = %v, want 250ms", time.Duration(back))
	}
	if err := json.Unmarshal([]byte(`"not-a-duration"`), &back); err == nil {
		t.Fatal("bad duration string accepted")
	}
}

// writeConfig writes body as a config file and returns its path.
func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wansimd.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// paramsFromFlags is the flags path of both binaries: the simulation
// flags registered from DefaultParams, args parsed, Resolved.
func paramsFromFlags(t *testing.T, args ...string) (Params, error) {
	t.Helper()
	p := DefaultParams()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	p.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return p.Resolved()
}

// TestNormalizedMirrorsOneShotDefaults: a config file that sets nothing
// and a command line that sets nothing are the same run — the one
// DefaultParams spells out — because flag defaults and omitted-key
// defaults are one struct.
func TestNormalizedMirrorsOneShotDefaults(t *testing.T) {
	want := Params{
		Topology: "abilene", Wavelengths: 2, Rounds: 28,
		Interval: Duration(6 * time.Hour), Policy: "all",
		Demand: 1.2, DemandSigma: 0.1, Seed: 2017,
	}
	fromFile, err := LoadParams(writeConfig(t, `{}`))
	if err != nil {
		t.Fatal(err)
	}
	fromFlags, err := paramsFromFlags(t)
	if err != nil {
		t.Fatal(err)
	}
	if fromFile != want || fromFlags != want {
		t.Fatalf("empty config = %+v, empty command line = %+v, want %+v", fromFile, fromFlags, want)
	}
}

func TestNormalizedCapsContinentalDemands(t *testing.T) {
	p := DefaultParams()
	p.Topology = "continental:40"
	p, err := p.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxDemands != 160 {
		t.Fatalf("continental:40 MaxDemands = %d, want 4×nodes = 160", p.MaxDemands)
	}
	// An explicit cap always wins.
	p.MaxDemands = 7
	if p, err = p.Resolved(); err != nil || p.MaxDemands != 7 {
		t.Fatalf("explicit MaxDemands overridden: %d (err %v)", p.MaxDemands, err)
	}
}

// TestFlagsEqualConfigFile: the same run asked for on the command line
// and in a config file resolves to == Params — including the derived
// continental cap and values that used to read as "unset" (seed 0).
func TestFlagsEqualConfigFile(t *testing.T) {
	cases := []struct {
		name string
		args []string
		json string
	}{
		{"continental cap derived",
			[]string{"-topology", "continental:40", "-wavelengths", "4", "-rounds", "3", "-policy", "dynamic"},
			`{"topology":"continental:40","wavelengths":4,"rounds":3,"policy":"dynamic"}`},
		{"every field",
			[]string{"-topology", "us", "-wavelengths", "3", "-rounds", "9", "-interval", "1h", "-policy", "staticmax",
				"-te", "kpath", "-demand", "0.8", "-max-demands", "40", "-seed", "5", "-hitless", "-lengthaware", "-override-snr", "1,2,3,-4.5"},
			`{"topology":"us","wavelengths":3,"rounds":9,"interval":"1h","policy":"staticmax","te":"kpath","demand":0.8,
			  "max_demands":40,"seed":5,"hitless":true,"lengthaware":true,"override_snr":"1,2,3,-4.5"}`},
		{"seed zero is seed zero", []string{"-seed", "0"}, `{"seed":0}`},
	}
	for _, tc := range cases {
		fromFlags, err := paramsFromFlags(t, tc.args...)
		if err != nil {
			t.Fatalf("%s: flags: %v", tc.name, err)
		}
		fromFile, err := LoadParams(writeConfig(t, tc.json))
		if err != nil {
			t.Fatalf("%s: file: %v", tc.name, err)
		}
		if fromFlags != fromFile {
			t.Errorf("%s: flags %+v != file %+v", tc.name, fromFlags, fromFile)
		}
	}
	if p, _ := paramsFromFlags(t, "-topology", "continental:40"); p.MaxDemands != 160 {
		t.Errorf("flags path did not derive the continental cap: MaxDemands = %d", p.MaxDemands)
	}
}

// TestZeroValuedFlagsAreTakenAsGiven pins the drift the two lifecycles
// hid: -seed 0 ran seed 2017 in rwc-wansimd (0 read as unset), and
// -demand 0 printed 0.00x while offering a default load.
func TestZeroValuedFlagsAreTakenAsGiven(t *testing.T) {
	p, err := paramsFromFlags(t, "-seed", "0")
	if err != nil {
		t.Fatal(err)
	}
	net, err := p.Network()
	if err != nil {
		t.Fatal(err)
	}
	var header bytes.Buffer
	printRunHeader(&header, p, net)
	if p.Seed != 0 || !strings.Contains(header.String(), " seed=0\n") {
		t.Errorf("-seed 0 ran seed %d; header %q", p.Seed, header.String())
	}
	if _, err := paramsFromFlags(t, "-demand", "0"); err == nil {
		t.Error("-demand 0 accepted; it must be a validation error, not a silent default")
	}
	for _, body := range []string{`{"demand":0}`, `{"demand":-1}`} {
		if _, err := LoadParams(writeConfig(t, body)); err == nil {
			t.Errorf("config %s accepted", body)
		}
	}
}

func TestValidateRejectsBadFields(t *testing.T) {
	base := Params{Topology: "abilene", Wavelengths: 2, Rounds: 5, Interval: Duration(time.Hour), Policy: "all", Demand: 1, DemandSigma: 0.1, Seed: 1}
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"bad policy", func(p *Params) { p.Policy = "yolo" }},
		{"bad te", func(p *Params) { p.TE = "magic" }},
		{"bad topology", func(p *Params) { p.Topology = "moon-base" }},
		{"zero rounds", func(p *Params) { p.Rounds = 0 }},
		{"negative interval", func(p *Params) { p.Interval = Duration(-time.Second) }},
		{"negative demand", func(p *Params) { p.Demand = -1 }},
		{"zero demand", func(p *Params) { p.Demand = 0 }},
		{"malformed override", func(p *Params) { p.OverrideSNR = "1,2" }},
		{"override out of range", func(p *Params) { p.OverrideSNR = "0,0,5,3" }},
		{"negative sigma", func(p *Params) { p.DemandSigma = -0.5 }},
		{"negative max_demands", func(p *Params) { p.MaxDemands = -2 }},
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base params invalid: %v", err)
	}
	for _, tc := range cases {
		p := base
		tc.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, p)
		}
	}
}

func TestLoadParamsStrictDecode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wansimd.json")

	ok := `{"topology":"random:8","rounds":4,"interval":"1h","seed":9}`
	if err := os.WriteFile(path, []byte(ok), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadParams(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Topology != "random:8" || p.Rounds != 4 || time.Duration(p.Interval) != time.Hour || p.Seed != 9 {
		t.Fatalf("LoadParams = %+v", p)
	}
	// Unset fields were normalized to the one-shot defaults.
	if p.Policy != "all" || p.Wavelengths != 2 || p.Demand != 1.2 {
		t.Fatalf("LoadParams did not normalize defaults: %+v", p)
	}

	for _, bad := range []string{
		`{"topology":"abilene","workers":4}`, // unknown key: not a sim param
		`{"topology":"abilene",`,             // syntax error
		`{"topology":"nowhere"}`,             // fails validation
	} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadParams(path); err == nil {
			t.Errorf("LoadParams accepted %s", bad)
		}
	}
	if _, err := LoadParams(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("LoadParams accepted a missing file")
	}
}

func TestParamsComparableForNoopDetection(t *testing.T) {
	a, b := DefaultParams(), DefaultParams()
	if a != b {
		t.Fatal("identical normalized params compare unequal; no-op reload detection depends on ==")
	}
	b.Seed++
	if a == b {
		t.Fatal("different params compare equal")
	}
}
