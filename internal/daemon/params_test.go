package daemon

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/wan"
)

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
	p, _, err := p.Resolved()
	return p, err
}

// TestNormalizedMirrorsOneShotDefaults: a config file that sets nothing
// and a command line that sets nothing are the same run — the one
// DefaultParams spells out — because flag defaults and omitted-key
// defaults are one struct.
func TestNormalizedMirrorsOneShotDefaults(t *testing.T) {
	want := Params{Topology: "abilene", Wavelengths: 2, Rounds: 28, Policy: "all", Seed: 2017}
	fromFile, _, err := LoadParams(writeConfig(t, `{}`))
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

// TestNormalizedCapsContinentalDemands: a continental run keeps the
// 4×nodes heaviest gravity demands, any other topology every pair.
func TestNormalizedCapsContinentalDemands(t *testing.T) {
	for _, tc := range []struct {
		topology string
		want     int
	}{{"continental:40", 160}, {"abilene", 0}} {
		p := resolved(t, func(p *Params) { p.Topology = tc.topology })
		net, err := p.Network()
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := p.SimConfig(net)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.MaxDemands != tc.want {
			t.Errorf("%s: MaxDemands = %d, want %d", tc.topology, cfg.MaxDemands, tc.want)
		}
	}
}

// TestResolvedHandsOnItsNetwork: the network Resolved checks a config
// against is the one Network builds, so the generation that runs the
// config can take it instead of parsing the topology again.
func TestResolvedHandsOnItsNetwork(t *testing.T) {
	for _, topology := range []string{"continental:40", "abilene"} {
		p := DefaultParams()
		p.Topology = topology
		p, got, err := p.Resolved()
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Network()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Resolved checked a network other than Network's", topology)
		}
	}
}

// TestFlagsEqualConfigFile: the same run asked for on the command line
// and in a config file resolves to == Params — including values that
// used to read as "unset" (seed 0).
func TestFlagsEqualConfigFile(t *testing.T) {
	cases := []struct {
		name string
		args []string
		json string
	}{
		{"continental",
			[]string{"-topology", "continental:40", "-wavelengths", "4", "-rounds", "3", "-policy", "dynamic"},
			`{"topology":"continental:40","wavelengths":4,"rounds":3,"policy":"dynamic"}`},
		{"every field",
			[]string{"-topology", "us", "-wavelengths", "3", "-rounds", "9", "-policy", "staticmax",
				"-te", "kpath", "-seed", "5", "-hitless", "-lengthaware", "-override-snr", "1,2,3,-4.5"},
			`{"topology":"us","wavelengths":3,"rounds":9,"policy":"staticmax","te":"kpath",
			  "seed":5,"hitless":true,"lengthaware":true,"override_snr":"1,2,3,-4.5"}`},
		{"seed zero is seed zero", []string{"-seed", "0"}, `{"seed":0}`},
	}
	for _, tc := range cases {
		fromFlags, err := paramsFromFlags(t, tc.args...)
		if err != nil {
			t.Fatalf("%s: flags: %v", tc.name, err)
		}
		fromFile, _, err := LoadParams(writeConfig(t, tc.json))
		if err != nil {
			t.Fatalf("%s: file: %v", tc.name, err)
		}
		if fromFlags != fromFile {
			t.Errorf("%s: flags %+v != file %+v", tc.name, fromFlags, fromFile)
		}
	}
}

// TestZeroValuedFlagsAreTakenAsGiven pins the drift the two lifecycles
// hid: -seed 0 ran seed 2017 in rwc-wansimd (0 read as unset).
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
}

func TestValidateRejectsBadFields(t *testing.T) {
	base := Params{Topology: "abilene", Wavelengths: 2, Rounds: 5, Policy: "all", Seed: 1}
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"bad policy", func(p *Params) { p.Policy = "yolo" }},
		{"bad te", func(p *Params) { p.TE = "magic" }},
		{"bad topology", func(p *Params) { p.Topology = "moon-base" }},
		{"zero rounds", func(p *Params) { p.Rounds = 0 }},
		{"malformed override", func(p *Params) { p.OverrideSNR = "1,2" }},
		{"override out of range", func(p *Params) { p.OverrideSNR = "0,0,5,3" }},
		{"NaN override", func(p *Params) { p.OverrideSNR = "0,0,1,NaN" }},
		{"+Inf override", func(p *Params) { p.OverrideSNR = "0,0,1,+Inf" }},
		{"-Inf override", func(p *Params) { p.OverrideSNR = "0,0,1,-Inf" }},
		{"fifth override field", func(p *Params) { p.OverrideSNR = "0,0,1,5,7" }},
		{"override unit suffix", func(p *Params) { p.OverrideSNR = "0,0,1,5dB" }},
		{"override trailing text", func(p *Params) { p.OverrideSNR = "0,0,1,5 junk" }},
	}
	if _, _, err := base.Resolved(); err != nil {
		t.Fatalf("base params invalid: %v", err)
	}
	for _, tc := range cases {
		p := base
		tc.mutate(&p)
		if _, _, err := p.Resolved(); err == nil {
			t.Errorf("%s: Resolved accepted %+v", tc.name, p)
		}
	}
}

// TestResolvedBoundsSNRPreGeneration: NewSimulation draws and keeps
// every channel's SNR for the whole round budget before round 0, so
// Resolved refuses a config whose table would exhaust memory — more
// than 1024 channels a fiber, or more than 2^26 samples — without
// building it. It admits every
// command line the repo runs, and the clock-overflowing reload's config,
// which Reload's clock check alone refuses.
func TestResolvedBoundsSNRPreGeneration(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{`{"wavelengths":10000000}`, "wavelengths per fiber"},
		{`{"wavelengths":1025}`, "wavelengths per fiber"},
		{`{"topology":"continental:4096","wavelengths":8,"rounds":427000}`, "SNR samples"},
		{`{"topology":"continental:1000","wavelengths":8,"rounds":5597}`, "SNR samples"},
	} {
		if _, _, err := parseParams([]byte(tc.body)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Resolved returned %v, want an error naming %s", tc.body, err, tc.want)
		}
	}
	for _, body := range []string{
		`{"topology":"abilene","rounds":427007}`,
		`{"wavelengths":1024}`,
		`{"topology":"continental:1000","wavelengths":8,"rounds":5596}`,
		// CI's continental-scale and daemon smokes, bench's
		// daemon-load-c64 at its 12 s window and the Makefile demos.
		`{"topology":"continental:4096","wavelengths":8,"rounds":2}`,
		`{"topology":"continental:1000","wavelengths":8,"rounds":4}`,
		`{"topology":"continental:200","wavelengths":8,"rounds":400}`,
		`{"topology":"continental:64","wavelengths":8,"rounds":1600}`,
		`{"rounds":2000}`,
	} {
		if _, _, err := parseParams([]byte(body)); err != nil {
			t.Errorf("%s: %v", body, err)
		}
	}
}

func TestLoadParamsStrictDecode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wansimd.json")

	ok := `{"topology":"random:8","rounds":4,"seed":9}`
	if err := os.WriteFile(path, []byte(ok), 0o644); err != nil {
		t.Fatal(err)
	}
	p, _, err := LoadParams(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Topology != "random:8" || p.Rounds != 4 || p.Seed != 9 {
		t.Fatalf("LoadParams = %+v", p)
	}
	// Unset fields were normalized to the one-shot defaults.
	if p.Policy != "all" || p.Wavelengths != 2 {
		t.Fatalf("LoadParams did not normalize defaults: %+v", p)
	}

	for _, bad := range []string{
		`{"topology":"abilene","workers":4}`,     // unknown key: not a sim param
		`{"topology":"abilene","interval":"6h"}`, // unknown key: a constant, not a setting
		`{"topology":"abilene",`,                 // syntax error
		`{"topology":"nowhere"}`,                 // fails validation
	} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadParams(path); err == nil {
			t.Errorf("LoadParams accepted %s", bad)
		}
	}
	if _, _, err := LoadParams(filepath.Join(dir, "missing.json")); err == nil {
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

// FuzzLoadParams: the config-file parser never panics, and whatever it
// accepts is a fixed point of Resolved whose assembled SimConfig the
// simulation accepts and runs a first round of, its SNR override
// injected — so a hot reload it lets through cannot fail after the
// running generation was drained for it. An override must pin a finite
// SNR: the run's artifacts cannot carry another. Topology specs past 256
// nodes are skipped to keep each exec fast; past the 4096-node ceiling
// a spec must be refused.
func FuzzLoadParams(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var probe struct {
			Topology string `json:"topology"`
		}
		if json.NewDecoder(bytes.NewReader(data)).Decode(&probe) == nil {
			if _, arg, ok := strings.Cut(probe.Topology, ":"); ok {
				if n, err := strconv.Atoi(arg); err == nil && n > 256 && n <= 4096 {
					t.Skip("topology larger than 256 nodes")
				}
			}
		}
		p, _, err := parseParams(data)
		if err != nil {
			return
		}
		again, _, err := p.Resolved()
		if err != nil || again != p {
			t.Fatalf("Resolved is not idempotent on %+v: %+v, %v", p, again, err)
		}
		net, err := p.Network()
		if err != nil {
			t.Fatalf("accepted %+v but its network fails: %v", p, err)
		}
		if n := net.G.NumNodes(); n > 4096 {
			t.Fatalf("accepted %+v, a %d-node network past the 4096-node ceiling", p, n)
		}
		cfg, err := p.SimConfig(net)
		if err == nil {
			err = cfg.Validate()
		}
		if err != nil {
			t.Fatalf("accepted %+v but the simulation rejects it: %v", p, err)
		}
		// Nor may the new generation's first round fail: one round under
		// the default allocator routes the same traffic matrix, which
		// depends on neither the round count nor the allocator, and keeps
		// an exec cheap.
		first := cfg
		first.Rounds, first.TE = 1, nil
		sim, err := wan.NewSimulation(first)
		if err != nil {
			t.Fatalf("accepted %+v but its first round fails: %v", p, err)
		}
		if p.OverrideSNR != "" {
			f, w, _, db, err := parseOverrideSNR(p.OverrideSNR)
			if err == nil {
				err = sim.OverrideSNR(f, w, 0, db)
			}
			if err != nil || math.IsNaN(db) || math.IsInf(db, 0) {
				t.Fatalf("accepted %+v but cannot inject its %v dB override: %v", p, db, err)
			}
		}
		_, err = sim.Run(wan.PolicyStatic100)
		if err != nil {
			t.Fatalf("accepted %+v but its first round fails: %v", p, err)
		}
	})
}
