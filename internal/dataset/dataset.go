// Package dataset ties the SNR process, the modulation ladder, and the
// failure taxonomy into the synthetic equivalent of the paper's
// measurement substrate: ">2000 links in a large company's WAN every
// fifteen minutes for a period of 2.5 years" (§2.1).
//
// The full-scale fleet does not fit in memory as raw samples
// (2000 links × 87,600 samples), so the package exposes a streaming
// generator (Stream) that visits one wavelength at a time, plus the
// per-link analysis (Analyze) and the fleet-level aggregation
// (AnalyzeFleet) every §2 figure is derived from.
package dataset

import (
	"fmt"
	"math"
	"time"

	"repro/internal/failures"
	"repro/internal/modulation"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/snr"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// HDRMass is the highest-density-region mass the paper uses (95%).
const HDRMass = 0.95

// DeployedCapacity is today's static configuration: every link runs at
// 100 Gbps.
const DeployedCapacity modulation.Gbps = 100

// Config describes a synthetic backbone fleet.
type Config struct {
	// Fibers is the number of physical fiber cables; each carries
	// Fiber.Wavelengths optical channels (IP links).
	Fibers int
	// Duration is the telemetry horizon.
	Duration time.Duration
	// Seed makes the whole fleet reproducible.
	Seed uint64
	// Fiber holds the generative parameters for each cable.
	Fiber snr.FiberParams
	// Ladder is the modulation ladder in effect.
	Ladder *modulation.Ladder
	// Workers bounds how many fibers are generated and analyzed
	// concurrently; <= 0 means runtime.GOMAXPROCS(0). Every value
	// produces identical results — per-fiber rng.Sources are split in
	// fiber order before dispatch and results are consumed in fiber
	// order (see internal/par).
	Workers int
	// Obs receives fan-out instrumentation: the deterministic
	// rwc_par_tasks_total counter for the dataset/stream and
	// dataset/analyze pools. Nil disables it.
	Obs *obs.Obs
}

// DefaultConfig is the paper-scale fleet: 50 fibers × 40 wavelengths =
// 2000 links over 2.5 years.
func DefaultConfig() Config {
	return Config{
		Fibers:   50,
		Duration: time.Duration(2.5 * 365 * 24 * float64(time.Hour)),
		Seed:     20170701, // the study window ends July 2017
		Fiber:    snr.DefaultFiberParams(),
		Ladder:   modulation.Default(),
	}
}

// SmallConfig is a reduced fleet for tests and quick runs: same
// generative parameters, fewer fibers and a shorter horizon.
func SmallConfig() Config {
	c := DefaultConfig()
	c.Fibers = 12
	c.Fiber.Wavelengths = 10
	c.Duration = 180 * 24 * time.Hour
	return c
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	if c.Fibers <= 0 {
		return fmt.Errorf("dataset: need >= 1 fiber, got %d", c.Fibers)
	}
	if c.Duration < snr.SampleInterval {
		return fmt.Errorf("dataset: duration %v below one sample interval", c.Duration)
	}
	if c.Ladder == nil {
		return fmt.Errorf("dataset: nil modulation ladder")
	}
	if err := c.Fiber.Validate(); err != nil {
		return err
	}
	// Fibers × Wavelengths must fit an int: a wrapped Links() count
	// silently truncates fleet sizes, progress totals, and admission
	// budgets downstream. (Both factors are positive after the checks
	// above, so the division-based probe is exact.)
	if w := c.Fiber.Wavelengths; w > 0 && c.Fibers > math.MaxInt/w {
		return fmt.Errorf("dataset: %d fibers x %d wavelengths overflows the link count", c.Fibers, w)
	}
	return nil
}

// Links returns the total number of links in the fleet. Validate
// guarantees the product fits an int.
func (c Config) Links() int { return c.Fibers * c.Fiber.Wavelengths }

// LinkMeta identifies one wavelength in the fleet.
type LinkMeta struct {
	Name              string
	Fiber, Wavelength int
}

// linkMeta names fiber f's wavelength w the way the whole repo refers
// to it.
func linkMeta(f, w int) LinkMeta {
	return LinkMeta{
		Name:  fmt.Sprintf("fiber%03d-wl%02d", f, w),
		Fiber: f, Wavelength: w,
	}
}

// parOpts configures one fan-out pool over the fleet's fibers.
func (c Config) parOpts(pool string) par.Opts {
	return par.Opts{Workers: c.Workers, Name: pool, Obs: c.Obs}
}

// fiberRngs pre-splits one rng.Source per fiber, in fiber order — the
// first half of the determinism contract (internal/par): splitting
// up front consumes exactly the parent state a serial loop would, so
// the fleet is byte-identical for every worker count.
func (c Config) fiberRngs() []*rng.Source {
	root := rng.New(c.Seed)
	rngs := make([]*rng.Source, c.Fibers)
	for f := range rngs {
		rngs[f] = root.Split()
	}
	return rngs
}

// Stream generates the fleet and visits every wavelength's series in
// fiber, wavelength order. Fibers are generated concurrently (Config.
// Workers), but visit always runs on the calling goroutine, in order;
// at most Workers generated-but-unvisited fibers are held in memory, so
// visitors must not retain the *snr.Series beyond the call. Returning a
// non-nil error aborts the stream.
func Stream(cfg Config, visit func(meta LinkMeta, s *snr.Series) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	n := snr.SamplesFor(cfg.Duration)
	rngs := cfg.fiberRngs()
	return par.Stream(cfg.parOpts("dataset/stream"), cfg.Fibers,
		func(worker, f int) (*snr.Fiber, error) {
			return snr.GenerateFiber(cfg.Fiber, n, rngs[f])
		},
		func(f int, fiber *snr.Fiber) error {
			for w, s := range fiber.Series {
				if err := visit(linkMeta(f, w), s); err != nil {
					return err
				}
			}
			return nil
		})
}

// GenerateFiberSeries generates just one fiber of the fleet (used by
// Figure 1, which plots the 40 wavelengths of a single cable). The
// fiber index selects the same cable Stream would generate.
func GenerateFiberSeries(cfg Config, fiberIdx int) (*snr.Fiber, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if fiberIdx < 0 || fiberIdx >= cfg.Fibers {
		return nil, fmt.Errorf("dataset: fiber index %d out of range [0,%d)", fiberIdx, cfg.Fibers)
	}
	n := snr.SamplesFor(cfg.Duration)
	root := rng.New(cfg.Seed)
	var fiberRng *rng.Source
	for f := 0; f <= fiberIdx; f++ {
		fiberRng = root.Split()
	}
	return snr.GenerateFiber(cfg.Fiber, n, fiberRng)
}

// GenerateFleet materializes the whole fleet in memory as telemetry.
// Intended for scaled-down configs (snrgen); the full DefaultConfig
// fleet is ≈1.4 GB of float64 samples.
func GenerateFleet(cfg Config) (*telemetry.Fleet, error) {
	fleet := telemetry.NewFleet()
	err := Stream(cfg, func(meta LinkMeta, s *snr.Series) error {
		fleet.Add(telemetry.LinkRecord{
			Name:       meta.Name,
			Fiber:      meta.Fiber,
			Wavelength: meta.Wavelength,
			BaselinedB: s.BaselinedB,
			Samples:    append([]float64(nil), s.Samples...),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fleet, nil
}

// LinkStats is the per-link derived record behind the §2 analyses.
type LinkStats struct {
	Meta LinkMeta
	// BaselinedB is the generative baseline.
	BaselinedB float64
	// RangedB is max−min over the horizon (Figure 2a, blue).
	RangedB float64
	// HDR is the 95% highest-density region (Figure 2a, red).
	HDR stats.HDRInterval
	// Feasible is the highest sustainable mode judged by the HDR lower
	// bound ("we calculate the feasible capacity for each link based on
	// the lower SNR limit of its highest density region"); Ok is false
	// if even the lowest rung is infeasible.
	Feasible   modulation.Mode
	FeasibleOk bool
	// Failures are the failure spans at the deployed 100 Gbps
	// threshold.
	Failures []failures.Span
	// FailureCount[c] counts the failures the link would suffer if
	// configured at each ladder capacity (Figure 3a's counterfactual).
	FailureCount map[modulation.Gbps]int
	// DowntimeHours[c] sums the failed hours at each ladder capacity
	// (Figure 3b).
	DowntimeHours map[modulation.Gbps]float64
}

// Analyze computes LinkStats for one series.
func Analyze(meta LinkMeta, s *snr.Series, ladder *modulation.Ladder) (LinkStats, error) {
	ls := LinkStats{Meta: meta, BaselinedB: s.BaselinedB}
	r, err := stats.Range(s.Samples)
	if err != nil {
		return ls, err
	}
	ls.RangedB = r
	hdr, err := stats.HDR(s.Samples, HDRMass)
	if err != nil {
		return ls, err
	}
	ls.HDR = hdr
	ls.Feasible, ls.FeasibleOk = ladder.FeasibleCapacity(hdr.Lo)

	deployedTh, err := ladder.ThresholdFor(DeployedCapacity)
	if err != nil {
		return ls, err
	}
	ls.Failures = failures.Detect(s.Samples, deployedTh)

	ls.FailureCount = make(map[modulation.Gbps]int, len(ladder.Modes()))
	ls.DowntimeHours = make(map[modulation.Gbps]float64, len(ladder.Modes()))
	for _, m := range ladder.Modes() {
		spans := failures.Detect(s.Samples, m.MinSNRdB)
		ls.FailureCount[m.Capacity] = len(spans)
		var h float64
		for _, sp := range spans {
			h += sp.Hours()
		}
		ls.DowntimeHours[m.Capacity] = h
	}
	return ls, nil
}

// FleetStats aggregates LinkStats across the fleet — the fleet-level
// series every §2 figure prints.
type FleetStats struct {
	Links []LinkStats
	// CapacityGainGbps is Σ over links of (feasible − deployed),
	// counting only links whose feasible capacity exceeds 100 Gbps —
	// the paper's "potential increase of 145 Tbps".
	CapacityGainGbps float64
	// FailureLowestSNR collects the lowest SNR of every failure event
	// at the deployed threshold (Figure 4c).
	FailureLowestSNR []float64
	// FailureTickets holds one synthetic operator ticket per detected
	// failure, with the root cause drawn conditionally on whether the
	// event was a complete loss of light — the SNR-derived counterpart
	// of the §2.2 ticket analysis.
	FailureTickets []failures.Ticket
}

// AnalyzeFleet generates and analyzes the fleet, aggregating per-link
// stats. Each fiber's generation + per-wavelength analysis (the
// dominant cost) fans out over Config.Workers; aggregation — including
// the ticket rng draws, whose order is observable — runs on the calling
// goroutine in fiber order, so the result is identical for every worker
// count.
func AnalyzeFleet(cfg Config) (*FleetStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := snr.SamplesFor(cfg.Duration)
	rngs := cfg.fiberRngs()
	fs := &FleetStats{}
	ticketModel := failures.DefaultTicketModel()
	ticketRng := rng.New(cfg.Seed ^ 0x71c7)
	err := par.Stream(cfg.parOpts("dataset/analyze"), cfg.Fibers,
		func(worker, f int) ([]LinkStats, error) {
			fiber, err := snr.GenerateFiber(cfg.Fiber, n, rngs[f])
			if err != nil {
				return nil, err
			}
			links := make([]LinkStats, len(fiber.Series))
			for w, s := range fiber.Series {
				links[w], err = Analyze(linkMeta(f, w), s, cfg.Ladder)
				if err != nil {
					return nil, err
				}
			}
			// The raw samples die with this task; LinkStats holds only
			// derived values.
			return links, nil
		},
		func(f int, links []LinkStats) error {
			for _, ls := range links {
				fs.Links = append(fs.Links, ls)
				if ls.FeasibleOk && ls.Feasible.Capacity > DeployedCapacity {
					fs.CapacityGainGbps += float64(ls.Feasible.Capacity - DeployedCapacity)
				}
				for _, sp := range ls.Failures {
					fs.FailureLowestSNR = append(fs.FailureLowestSNR, sp.LowestSNR)
					lossOfLight := sp.LowestSNR <= snr.LossOfLightdB
					fs.FailureTickets = append(fs.FailureTickets, failures.Ticket{
						Cause:    ticketModel.AssignCause(lossOfLight, ticketRng),
						Duration: sp.Duration(),
					})
				}
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return fs, nil
}

// HDRWidths extracts the HDR width of every link.
func (fs *FleetStats) HDRWidths() []float64 {
	out := make([]float64, len(fs.Links))
	for i, l := range fs.Links {
		out[i] = l.HDR.Width()
	}
	return out
}

// Ranges extracts the SNR range of every link.
func (fs *FleetStats) Ranges() []float64 {
	out := make([]float64, len(fs.Links))
	for i, l := range fs.Links {
		out[i] = l.RangedB
	}
	return out
}

// FeasibleCapacities extracts each link's feasible capacity (0 for
// links where no rung is feasible).
func (fs *FleetStats) FeasibleCapacities() []float64 {
	out := make([]float64, len(fs.Links))
	for i, l := range fs.Links {
		if l.FeasibleOk {
			out[i] = float64(l.Feasible.Capacity)
		}
	}
	return out
}
