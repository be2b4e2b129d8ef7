package daemon

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/wan"
)

// The simulation values no flag or config key sets: an offered load of
// 1.2× the static-100G capacity with a per-round log-normal churn of
// σ = 0.1 (rounds are wan.RoundInterval apart).
const (
	demandFraction = 1.2
	demandSigma    = 0.1
)

// Params defines *what is simulated*: the reloadable configuration of a
// run, read from the simulation flags of rwc-wansim and rwc-wansimd or
// from rwc-wansimd's JSON config file (artifact paths, serve address
// and tick cadence stay process flags: changing those means restarting
// the service). The struct is comparable, so an identical-config reload
// is detected by plain equality and provably changes nothing.
type Params struct {
	// Topology is the backbone spec (abilene, us, random[:N],
	// continental:N).
	Topology string `json:"topology"`
	// Wavelengths per fiber.
	Wavelengths int `json:"wavelengths,omitempty"`
	// Rounds is the TE round budget per config generation.
	Rounds int `json:"rounds,omitempty"`
	// Policy selects static100, staticmax, dynamic, or all.
	Policy string `json:"policy,omitempty"`
	// TE selects the allocator ("" = greedy).
	TE string `json:"te,omitempty"`
	// Seed drives SNR evolution and traffic churn.
	Seed uint64 `json:"seed,omitempty"`
	// Hitless assumes 35 ms capacity changes instead of 68 s.
	Hitless bool `json:"hitless,omitempty"`
	// LengthAware derives SNR baselines from link length.
	LengthAware bool `json:"lengthaware,omitempty"`
	// OverrideSNR pins one SNR cell, "fiber,wavelength,round,db" with a
	// finite db, before the rounds run — fault injection for
	// `rwc-diff a.flight b.flight`.
	OverrideSNR string `json:"override_snr,omitempty"`
}

// DefaultParams is the run either binary performs when told nothing:
// the default of every simulation flag, and the value of every key a
// config file omits.
func DefaultParams() Params {
	return Params{Topology: "abilene", Wavelengths: 2, Rounds: 28, Policy: "all", Seed: 2017}
}

// RegisterFlags registers the simulation flags on fs, bound to p's
// fields. Each flag's default is the field's current value, and a
// parsed value is taken as given: -seed 0 is seed 0.
func (p *Params) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&p.Topology, "topology", p.Topology, "backbone: abilene, us, random[:N], or continental:N (paper scale, e.g. continental:200)")
	fs.IntVar(&p.Wavelengths, "wavelengths", p.Wavelengths, "wavelengths per fiber")
	fs.IntVar(&p.Rounds, "rounds", p.Rounds, "TE recomputation rounds (per config generation)")
	fs.StringVar(&p.Policy, "policy", p.Policy, "policy: static100, staticmax, dynamic, or all")
	fs.StringVar(&p.TE, "te", p.TE, "TE algorithm: greedy (default), shortest-path, kpath, maxconcurrent")
	fs.Uint64Var(&p.Seed, "seed", p.Seed, "simulation seed")
	fs.BoolVar(&p.Hitless, "hitless", p.Hitless, "assume hitless (35 ms) capacity changes instead of 68 s")
	fs.BoolVar(&p.LengthAware, "lengthaware", p.LengthAware, "derive per-fiber SNR baselines from link length (QoT model)")
	fs.StringVar(&p.OverrideSNR, "override-snr", p.OverrideSNR, "pin one SNR cell as fiber,wavelength,round,db before the run (fault injection)")
}

// parseOverrideSNR parses an OverrideSNR spec: exactly four
// comma-separated fields and nothing else. The dB value must be finite:
// ParseFloat also reads NaN and ±Inf.
func parseOverrideSNR(s string) (fiber, wavelength, round int, db float64, err error) {
	f := strings.Split(s, ",")
	if len(f) != 4 {
		err = fmt.Errorf("%d fields", len(f))
	}
	for i, p := range [3]*int{&fiber, &wavelength, &round} {
		if err == nil {
			*p, err = strconv.Atoi(f[i])
		}
	}
	if err == nil {
		db, err = strconv.ParseFloat(f[3], 64)
	}
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("bad override-snr %q (want fiber,wavelength,round,db): %v", s, err)
	}
	if math.IsNaN(db) || math.IsInf(db, 0) {
		return 0, 0, 0, 0, fmt.Errorf("override-snr %q: %v dB is not a finite SNR", s, db)
	}
	return fiber, wavelength, round, db, nil
}

// Resolved runs every field through the shared parse paths and returns
// p ready to run, with the network it was checked against (what
// Network would build) for the generation that runs p. It has no side
// effects: a config file is accepted or rejected as a whole before it
// can touch a running simulation (reject-and-keep-last-known-good
// depends on that). Flags and config files both come through here, so
// the same run compares equal whichever way it was asked for.
func (p Params) Resolved() (Params, *wan.Network, error) {
	if _, err := wan.ParsePolicies(p.Policy); err != nil {
		return Params{}, nil, err
	}
	if _, err := wan.ParseTE(p.TE); err != nil {
		return Params{}, nil, err
	}
	net, err := p.Network()
	if err != nil {
		return Params{}, nil, err
	}
	if p.OverrideSNR != "" {
		f, w, r, _, err := parseOverrideSNR(p.OverrideSNR)
		if err != nil {
			return Params{}, nil, err
		}
		if f < 0 || f >= net.NumFibers || w < 0 || w >= net.Wavelengths || r < 0 || r >= p.Rounds {
			return Params{}, nil, fmt.Errorf("override-snr %q outside %d fibers x %d wavelengths x %d rounds", p.OverrideSNR, net.NumFibers, net.Wavelengths, p.Rounds)
		}
	}
	// The rest is the simulation's own check (rounds, the horizon), so a
	// config accepted here cannot fail when a reload has already drained
	// the running generation for it.
	cfg, err := p.SimConfig(net)
	if err != nil {
		return Params{}, nil, err
	}
	if err := cfg.Validate(); err != nil {
		return Params{}, nil, err
	}
	return p, net, nil
}

// Policies resolves the policy selection (call after Resolved).
func (p Params) Policies() ([]wan.Policy, error) {
	return wan.ParsePolicies(p.Policy)
}

// Network builds the backbone; Resolved returns the one it checked.
func (p Params) Network() (*wan.Network, error) {
	return wan.ParseTopology(p.Topology, p.Wavelengths, p.Seed)
}

// SimConfig assembles the wan.SimConfig core: everything Params
// defines, nothing the daemon wires (Obs, Flight, Pace, hooks).
// Continental gravity matrices have O(nodes²) pairs, so a continental
// run keeps the 4×nodes heaviest demands; other topologies keep every
// pair.
func (p Params) SimConfig(net *wan.Network) (wan.SimConfig, error) {
	alg, err := wan.ParseTE(p.TE)
	if err != nil {
		return wan.SimConfig{}, err
	}
	cfg := wan.SimConfig{
		Net:            net,
		Rounds:         p.Rounds,
		Seed:           p.Seed,
		DemandFraction: demandFraction,
		DemandSigma:    demandSigma,
		LengthAware:    p.LengthAware,
	}
	if strings.HasPrefix(p.Topology, "continental") {
		cfg.MaxDemands = 4 * net.G.NumNodes()
	}
	if alg != nil {
		cfg.TE = alg
	}
	if p.Hitless {
		cfg.ChangeDowntime = 35 * time.Millisecond
	}
	return cfg, nil
}

// LoadParams reads a daemon config file and parses it (parseParams).
func LoadParams(path string) (Params, *wan.Network, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Params{}, nil, err
	}
	p, net, err := parseParams(data)
	if err != nil {
		return Params{}, nil, fmt.Errorf("%s: %v", path, err)
	}
	return p, net, nil
}

// parseParams decodes a config file body strictly over DefaultParams
// (so an omitted key keeps its default and a present one is taken as
// given), then Resolves it. Unknown fields are errors — a typoed key
// must fail the reload, not silently run defaults.
func parseParams(data []byte) (Params, *wan.Network, error) {
	p := DefaultParams()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Params{}, nil, err
	}
	return p.Resolved()
}
