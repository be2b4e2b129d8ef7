// Package bvt models a bandwidth variable transceiver (BVT) — the
// optical device whose reconfiguration latency §3.1 measures on a
// testbed built around an Acacia flex-rate module driven over MDIO.
//
// The model reproduces the paper's two findings:
//
//   - state-of-the-art firmware only changes modulation from a lowered
//     power state: laser off → DSP reprogram → laser on → receiver
//     relock. "The majority of this latency is associated with turning
//     the laser back on" — ~68 s average downtime (Figure 6b);
//   - keeping the laser lit while reprogramming the DSP cuts the
//     downtime to ~35 ms on average, suggesting hitless capacity
//     changes are within reach.
//
// The device exposes an MDIO register file; the Driver programs
// modulation changes through it exactly the way the testbed harness
// would, against a simulated clock.
package bvt

import (
	"fmt"
	"math"
	"time"

	"repro/internal/modulation"
	"repro/internal/rng"
)

// MDIO register addresses of the simulated transceiver.
const (
	// RegControl: bit0 = laser enable, bit1 = DSP reset.
	RegControl uint16 = 0x0000
	// RegMode: modulation format code (see formatCode).
	RegMode uint16 = 0x0001
	// RegStatus: bit0 = laser lit, bit1 = DSP ready, bit2 = rx locked.
	RegStatus uint16 = 0x0002
	// RegSNR: receiver-estimated SNR in units of 0.1 dB.
	RegSNR uint16 = 0x0003
	// RegCapability: bit0 = supports hot (laser-on) reprogram.
	RegCapability uint16 = 0x0004
)

// Control register bits.
const (
	ctrlLaserEnable uint16 = 1 << 0
	ctrlDSPReset    uint16 = 1 << 1
)

// Status register bits.
const (
	StatusLaserLit uint16 = 1 << 0
	StatusDSPReady uint16 = 1 << 1
	StatusRxLocked uint16 = 1 << 2
)

// MDIO is the management interface the driver programs the device
// through, mirroring IEEE 802.3 clause 45 access.
type MDIO interface {
	ReadReg(reg uint16) (uint16, error)
	WriteReg(reg uint16, val uint16) error
}

// LatencyModel holds the log-normal stage latencies of the device. All
// parameters are (mu, sigma) of the underlying normal in log-seconds.
type LatencyModel struct {
	// LaserDisable is the time to take the laser down gracefully.
	LaserDisableMu, LaserDisableSigma float64
	// Reprogram is the DSP/firmware reconfiguration time.
	ReprogramMu, ReprogramSigma float64
	// LaserEnable is the laser turn-on plus receiver relock time — the
	// dominant term the paper identifies.
	LaserEnableMu, LaserEnableSigma float64
	// HotReprogram is the laser-on DSP swap time (efficient path).
	HotReprogramMu, HotReprogramSigma float64
}

// DefaultLatencyModel is calibrated to Figure 6b: power-cycle changes
// average ≈68 s (dominated by laser re-enable), efficient changes
// average ≈35 ms.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{
		// mean = exp(mu + sigma²/2); solve mu for the target mean.
		LaserDisableMu: muForMean(1.5, 0.4), LaserDisableSigma: 0.4,
		ReprogramMu: muForMean(4.5, 0.35), ReprogramSigma: 0.35,
		LaserEnableMu: muForMean(62, 0.45), LaserEnableSigma: 0.45,
		HotReprogramMu: muForMean(0.035, 0.3), HotReprogramSigma: 0.3,
	}
}

// muForMean returns the log-normal mu that yields the given mean for
// the given sigma.
func muForMean(mean, sigma float64) float64 {
	return math.Log(mean) - sigma*sigma/2
}

// Transceiver is the simulated flex-rate module.
type Transceiver struct {
	regs    map[uint16]uint16
	ladder  *modulation.Ladder
	latency LatencyModel
	rng     *rng.Source
	// clock accumulates simulated time consumed by device operations.
	clock time.Duration
	// downSince marks when the link last went down (laser off or DSP
	// not ready); -1 when up.
	downSince time.Duration
	// downtimeAccrued accumulates link-down time.
	downtimeAccrued time.Duration
	// snrdB is the channel SNR the receiver estimates.
	snrdB float64
	// hotCapable reports firmware support for laser-on reprogramming.
	hotCapable bool
}

// Config configures a Transceiver.
type Config struct {
	Ladder  *modulation.Ladder
	Latency LatencyModel
	// InitialMode is the starting modulation (must be in the ladder).
	InitialMode modulation.Gbps
	// ChannelSNRdB is the fiber's SNR at the receiver.
	ChannelSNRdB float64
	// HotCapable enables the efficient (laser-on) reprogram path.
	HotCapable bool
	// Seed drives the latency draws.
	Seed uint64
}

// New constructs a transceiver in the Active state at the initial mode.
func New(cfg Config) (*Transceiver, error) {
	if cfg.Ladder == nil {
		cfg.Ladder = modulation.Default()
	}
	mode, ok := cfg.Ladder.ModeFor(cfg.InitialMode)
	if !ok {
		return nil, fmt.Errorf("bvt: initial mode %v Gbps not in ladder", cfg.InitialMode)
	}
	t := &Transceiver{
		regs:       make(map[uint16]uint16),
		ladder:     cfg.Ladder,
		latency:    cfg.Latency,
		rng:        rng.New(cfg.Seed),
		snrdB:      cfg.ChannelSNRdB,
		hotCapable: cfg.HotCapable,
		downSince:  -1,
	}
	if t.latency == (LatencyModel{}) {
		t.latency = DefaultLatencyModel()
	}
	t.regs[RegMode] = formatCode(mode.Format)
	t.regs[RegControl] = ctrlLaserEnable
	if cfg.HotCapable {
		t.regs[RegCapability] = 1
	}
	t.refreshStatus()
	return t, nil
}

// formatCode maps formats to register codes.
func formatCode(f modulation.Format) uint16 { return uint16(f) }

// codeFormat is the inverse of formatCode.
func codeFormat(c uint16) modulation.Format { return modulation.Format(c) }

// Downtime returns accumulated link-down time.
func (t *Transceiver) Downtime() time.Duration { return t.downtimeAccrued }

// Mode returns the currently programmed mode.
func (t *Transceiver) Mode() (modulation.Mode, bool) {
	for _, m := range t.ladder.Modes() {
		if formatCode(m.Format) == t.regs[RegMode] {
			return m, true
		}
	}
	return modulation.Mode{}, false
}

// LinkUp reports whether the link is carrying traffic: laser lit, DSP
// ready, receiver locked, and SNR above the mode's threshold.
func (t *Transceiver) LinkUp() bool {
	s := t.regs[RegStatus]
	return s&StatusLaserLit != 0 && s&StatusDSPReady != 0 && s&StatusRxLocked != 0
}

// SetChannelSNR changes the fiber's SNR (e.g. an amplifier failed) and
// re-evaluates lock.
func (t *Transceiver) SetChannelSNR(db float64) {
	t.snrdB = db
	t.refreshStatus()
}

// advance consumes simulated time and accounts downtime.
func (t *Transceiver) advance(d time.Duration) {
	t.clock += d
	if t.downSince >= 0 {
		t.downtimeAccrued += d
	}
}

// markDown/markUp track link transitions against the simulated clock.
func (t *Transceiver) refreshStatus() {
	st := uint16(0)
	if t.regs[RegControl]&ctrlLaserEnable != 0 {
		st |= StatusLaserLit
	}
	if t.regs[RegControl]&ctrlDSPReset == 0 {
		st |= StatusDSPReady
	}
	// Receiver locks only when lit, ready, and SNR clears the mode's
	// threshold.
	if st&StatusLaserLit != 0 && st&StatusDSPReady != 0 {
		if m, ok := t.Mode(); ok && t.snrdB >= m.MinSNRdB {
			st |= StatusRxLocked
		}
	}
	t.regs[RegStatus] = st
	t.regs[RegSNR] = uint16(math.Max(0, t.snrdB) * 10)
	up := st&StatusLaserLit != 0 && st&StatusDSPReady != 0 && st&StatusRxLocked != 0
	if up && t.downSince >= 0 {
		t.downSince = -1
	} else if !up && t.downSince < 0 {
		t.downSince = t.clock
	}
}

// ReadReg implements MDIO.
func (t *Transceiver) ReadReg(reg uint16) (uint16, error) {
	v, ok := t.regs[reg]
	if !ok && reg > RegCapability {
		return 0, fmt.Errorf("bvt: read of unknown register 0x%04x", reg)
	}
	return v, nil
}

// WriteReg implements MDIO. Writes consume simulated time according to
// the latency model and enforce the firmware's constraints: a mode
// write with the laser lit is rejected unless the device is
// hot-capable.
func (t *Transceiver) WriteReg(reg uint16, val uint16) error {
	switch reg {
	case RegControl:
		prev := t.regs[RegControl]
		t.regs[RegControl] = val
		switch {
		case prev&ctrlLaserEnable != 0 && val&ctrlLaserEnable == 0:
			// Laser going down.
			t.refreshStatus()
			t.advance(lognormalDur(t.rng, t.latency.LaserDisableMu, t.latency.LaserDisableSigma))
		case prev&ctrlLaserEnable == 0 && val&ctrlLaserEnable != 0:
			// Laser coming up: turn-on plus receiver relock dominates.
			t.advance(lognormalDur(t.rng, t.latency.LaserEnableMu, t.latency.LaserEnableSigma))
			t.refreshStatus()
		default:
			t.refreshStatus()
		}
		return nil
	case RegMode:
		f := codeFormat(val)
		if _, err := modeForFormat(t.ladder, f); err != nil {
			return err
		}
		if t.regs[RegControl]&ctrlLaserEnable != 0 {
			if !t.hotCapable {
				return fmt.Errorf("bvt: firmware rejects modulation change with laser enabled")
			}
			// Hot path: brief traffic hit while the DSP swaps.
			t.downSince = t.clock
			t.regs[RegStatus] &^= StatusRxLocked
			t.advance(lognormalDur(t.rng, t.latency.HotReprogramMu, t.latency.HotReprogramSigma))
			t.regs[RegMode] = val
			t.refreshStatus()
			return nil
		}
		// Cold path: DSP reprogram with laser off.
		t.advance(lognormalDur(t.rng, t.latency.ReprogramMu, t.latency.ReprogramSigma))
		t.regs[RegMode] = val
		t.refreshStatus()
		return nil
	case RegStatus, RegSNR, RegCapability:
		return fmt.Errorf("bvt: register 0x%04x is read-only", reg)
	default:
		return fmt.Errorf("bvt: write to unknown register 0x%04x", reg)
	}
}

// modeForFormat finds the ladder mode with the given format.
func modeForFormat(l *modulation.Ladder, f modulation.Format) (modulation.Mode, error) {
	for _, m := range l.Modes() {
		if m.Format == f {
			return m, nil
		}
	}
	return modulation.Mode{}, fmt.Errorf("bvt: format %v not in ladder", f)
}

// lognormalDur draws a log-normal duration in seconds.
func lognormalDur(r *rng.Source, mu, sigma float64) time.Duration {
	return time.Duration(r.LogNormal(mu, sigma) * float64(time.Second))
}
