package daemon

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/wan"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("6h", "250ms") in the daemon's JSON config, and also accepts a
// plain nanosecond number.
type Duration time.Duration

// MarshalJSON renders the duration string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "6h" strings and nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("bad duration %q: %v", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("duration must be a string like \"6h\" or a nanosecond number")
	}
	*d = Duration(ns)
	return nil
}

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
	// Interval is the simulated time between rounds.
	Interval Duration `json:"interval,omitempty"`
	// Policy selects static100, staticmax, dynamic, or all.
	Policy string `json:"policy,omitempty"`
	// TE selects the allocator ("" = greedy).
	TE string `json:"te,omitempty"`
	// Demand is offered load as a fraction of static-100G capacity.
	Demand float64 `json:"demand,omitempty"`
	// DemandSigma is per-round demand churn (no flag; config file only).
	DemandSigma float64 `json:"demand_sigma,omitempty"`
	// MaxDemands caps gravity demands (0 = all; Resolved turns 0 into
	// 4×nodes on continental topologies).
	MaxDemands int `json:"max_demands,omitempty"`
	// Seed drives SNR evolution and traffic churn.
	Seed uint64 `json:"seed,omitempty"`
	// Hitless assumes 35 ms capacity changes instead of 68 s.
	Hitless bool `json:"hitless,omitempty"`
	// LengthAware derives SNR baselines from link length.
	LengthAware bool `json:"lengthaware,omitempty"`
	// OverrideSNR pins one SNR cell, "fiber,wavelength,round,db", before
	// the rounds run — fault injection for `rwc-replay bisect`.
	OverrideSNR string `json:"override_snr,omitempty"`
}

// DefaultParams is the run either binary performs when told nothing:
// the default of every simulation flag, and the value of every key a
// config file omits.
func DefaultParams() Params {
	return Params{
		Topology: "abilene", Wavelengths: 2, Rounds: 28,
		Interval: Duration(6 * time.Hour), Policy: "all",
		Demand: 1.2, DemandSigma: 0.1, Seed: 2017,
	}
}

// RegisterFlags registers the simulation flags on fs, bound to p's
// fields. Each flag's default is the field's current value, and a
// parsed value is taken as given: -seed 0 is seed 0.
func (p *Params) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&p.Topology, "topology", p.Topology, "backbone: abilene, us, random[:N], or continental:N (paper scale, e.g. continental:200)")
	fs.IntVar(&p.Wavelengths, "wavelengths", p.Wavelengths, "wavelengths per fiber")
	fs.IntVar(&p.Rounds, "rounds", p.Rounds, "TE recomputation rounds (per config generation)")
	fs.DurationVar((*time.Duration)(&p.Interval), "interval", time.Duration(p.Interval), "simulated time between rounds")
	fs.StringVar(&p.Policy, "policy", p.Policy, "policy: static100, staticmax, dynamic, or all")
	fs.StringVar(&p.TE, "te", p.TE, "TE algorithm: greedy (default), shortest-path, kpath, maxconcurrent")
	fs.Float64Var(&p.Demand, "demand", p.Demand, "offered load as a fraction of static-100G capacity")
	fs.IntVar(&p.MaxDemands, "max-demands", p.MaxDemands, "keep only the N largest gravity demands (0 = all; continental topologies default to 4×nodes)")
	fs.Uint64Var(&p.Seed, "seed", p.Seed, "simulation seed")
	fs.BoolVar(&p.Hitless, "hitless", p.Hitless, "assume hitless (35 ms) capacity changes instead of 68 s")
	fs.BoolVar(&p.LengthAware, "lengthaware", p.LengthAware, "derive per-fiber SNR baselines from link length (QoT model)")
	fs.StringVar(&p.OverrideSNR, "override-snr", p.OverrideSNR, "pin one SNR cell as fiber,wavelength,round,db before the run (fault injection)")
}

// parseOverrideSNR parses an OverrideSNR spec.
func parseOverrideSNR(s string) (fiber, wavelength, round int, db float64, err error) {
	if _, err = fmt.Sscanf(s, "%d,%d,%d,%g", &fiber, &wavelength, &round, &db); err != nil {
		err = fmt.Errorf("bad override-snr %q (want fiber,wavelength,round,db): %v", s, err)
	}
	return
}

// Validate reports the first field Resolved rejects.
func (p Params) Validate() error {
	_, err := p.Resolved()
	return err
}

// Resolved runs every field through the shared parse paths and returns
// p ready to run. It has no side effects: a config file is accepted or
// rejected as a whole before it can touch a running simulation
// (reject-and-keep-last-known-good depends on that). The one thing it
// derives is the continental demand cap: continental gravity matrices
// have O(nodes²) pairs, so with no explicit MaxDemands they keep the
// 4×nodes heaviest. Flags and config files both come through here, so
// the same run compares equal whichever way it was asked for.
func (p Params) Resolved() (Params, error) {
	if _, err := wan.ParsePolicies(p.Policy); err != nil {
		return Params{}, err
	}
	if _, err := wan.ParseTE(p.TE); err != nil {
		return Params{}, err
	}
	net, err := wan.ParseTopology(p.Topology, p.Wavelengths, p.Seed)
	if err != nil {
		return Params{}, err
	}
	if p.Rounds <= 0 {
		return Params{}, fmt.Errorf("rounds must be >= 1, got %d", p.Rounds)
	}
	if p.Interval <= 0 {
		return Params{}, fmt.Errorf("interval must be positive, got %v", time.Duration(p.Interval))
	}
	if !(p.Demand > 0) {
		return Params{}, fmt.Errorf("demand must be positive, got %v", p.Demand)
	}
	if p.DemandSigma < 0 {
		return Params{}, fmt.Errorf("negative demand_sigma %v", p.DemandSigma)
	}
	if p.MaxDemands < 0 {
		return Params{}, fmt.Errorf("negative max-demands %d", p.MaxDemands)
	}
	if p.OverrideSNR != "" {
		f, w, r, _, err := parseOverrideSNR(p.OverrideSNR)
		if err != nil {
			return Params{}, err
		}
		if f < 0 || f >= net.NumFibers || w < 0 || w >= net.Wavelengths || r < 0 || r >= p.Rounds {
			return Params{}, fmt.Errorf("override-snr %q outside %d fibers x %d wavelengths x %d rounds", p.OverrideSNR, net.NumFibers, net.Wavelengths, p.Rounds)
		}
	}
	if p.MaxDemands == 0 && strings.HasPrefix(p.Topology, "continental") {
		p.MaxDemands = 4 * net.G.NumNodes()
	}
	return p, nil
}

// Policies resolves the policy selection (call after Validate).
func (p Params) Policies() ([]wan.Policy, error) {
	return wan.ParsePolicies(p.Policy)
}

// Network builds the backbone (call after Validate).
func (p Params) Network() (*wan.Network, error) {
	return wan.ParseTopology(p.Topology, p.Wavelengths, p.Seed)
}

// SimConfig assembles the wan.SimConfig core: everything Params
// defines, nothing the daemon wires (Obs, Flight, Pace, hooks).
func (p Params) SimConfig(net *wan.Network) (wan.SimConfig, error) {
	alg, err := wan.ParseTE(p.TE)
	if err != nil {
		return wan.SimConfig{}, err
	}
	cfg := wan.SimConfig{
		Net:            net,
		Rounds:         p.Rounds,
		RoundInterval:  time.Duration(p.Interval),
		Seed:           p.Seed,
		DemandFraction: p.Demand,
		DemandSigma:    p.DemandSigma,
		MaxDemands:     p.MaxDemands,
		LengthAware:    p.LengthAware,
	}
	if alg != nil {
		cfg.TE = alg
	}
	if p.Hitless {
		cfg.ChangeDowntime = 35 * time.Millisecond
	}
	return cfg, nil
}

// LoadParams reads a daemon config file: strictly decoded over
// DefaultParams (so an omitted key keeps its default and a present one
// is taken as given), then Resolved. Unknown fields are errors — a
// typoed key must fail the reload, not silently run defaults.
func LoadParams(path string) (Params, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Params{}, err
	}
	p := DefaultParams()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Params{}, fmt.Errorf("%s: %v", path, err)
	}
	if p, err = p.Resolved(); err != nil {
		return Params{}, fmt.Errorf("%s: %v", path, err)
	}
	return p, nil
}
