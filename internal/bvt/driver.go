package bvt

import (
	"fmt"
	"time"

	"repro/internal/modulation"
)

// Method selects the reconfiguration procedure.
type Method int

const (
	// MethodPowerCycle is today's firmware flow: laser off, reprogram,
	// laser on. Downtime ≈ 68 s (Figure 6b "Mod Change").
	MethodPowerCycle Method = iota
	// MethodHot reprograms the DSP with the laser lit. Downtime ≈
	// 35 ms (Figure 6b "Efficient Mod Change").
	MethodHot
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodPowerCycle:
		return "power-cycle"
	case MethodHot:
		return "hot"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ChangeReport records one modulation change as the testbed harness
// measures it.
type ChangeReport struct {
	To modulation.Mode
	// Downtime is the traffic-affecting time of the change.
	Downtime time.Duration
}

// Driver programs modulation changes through an MDIO interface —
// device-agnostic, just like the testbed harness.
type Driver struct {
	dev    MDIO
	ladder *modulation.Ladder
}

// NewDriver wraps an MDIO device.
func NewDriver(dev MDIO, ladder *modulation.Ladder) *Driver {
	if ladder == nil {
		ladder = modulation.Default()
	}
	return &Driver{dev: dev, ladder: ladder}
}

// ChangeModulation reconfigures the device to the target capacity using
// the given method and reports the measured downtime. The concrete
// Transceiver tracks simulated time; for a real device the driver would
// read hardware timestamps instead.
func (d *Driver) ChangeModulation(target modulation.Gbps, method Method) (ChangeReport, error) {
	tr, ok := d.dev.(*Transceiver)
	if !ok {
		return ChangeReport{}, fmt.Errorf("bvt: driver needs a simulated Transceiver to measure time")
	}
	mode, okMode := d.ladder.ModeFor(target)
	if !okMode {
		return ChangeReport{}, fmt.Errorf("bvt: capacity %v Gbps not in ladder", target)
	}
	startDown := tr.Downtime()

	switch method {
	case MethodPowerCycle:
		ctrl, err := d.dev.ReadReg(RegControl)
		if err != nil {
			return ChangeReport{}, err
		}
		// 1. Laser off.
		if err := d.dev.WriteReg(RegControl, ctrl&^ctrlLaserEnable); err != nil {
			return ChangeReport{}, err
		}
		// 2. Reprogram the DSP.
		if err := d.dev.WriteReg(RegMode, formatCode(mode.Format)); err != nil {
			return ChangeReport{}, err
		}
		// 3. Laser back on (the dominant latency).
		if err := d.dev.WriteReg(RegControl, ctrl|ctrlLaserEnable); err != nil {
			return ChangeReport{}, err
		}
	case MethodHot:
		if err := d.dev.WriteReg(RegMode, formatCode(mode.Format)); err != nil {
			return ChangeReport{}, err
		}
	default:
		return ChangeReport{}, fmt.Errorf("bvt: unknown method %v", method)
	}

	rep := ChangeReport{To: mode, Downtime: tr.Downtime() - startDown}
	if !tr.LinkUp() {
		return rep, fmt.Errorf("bvt: link did not come back after change to %v Gbps (SNR too low?)", target)
	}
	return rep, nil
}

// Testbed reproduces the §3.1 experiment: change the modulation n times
// (cycling through the given capacities) and collect the downtime of
// each change — the sample set behind Figure 6b's CDF.
func Testbed(cfg Config, capacities []modulation.Gbps, n int, method Method) ([]ChangeReport, error) {
	if len(capacities) < 2 {
		return nil, fmt.Errorf("bvt: testbed needs at least two capacities to cycle")
	}
	if n <= 0 {
		return nil, fmt.Errorf("bvt: testbed needs n > 0 changes")
	}
	if method == MethodHot {
		cfg.HotCapable = true
	}
	tr, err := New(cfg)
	if err != nil {
		return nil, err
	}
	drv := NewDriver(tr, cfg.Ladder)
	out := make([]ChangeReport, 0, n)
	for i := 0; i < n; i++ {
		target := capacities[(i+1)%len(capacities)]
		rep, err := drv.ChangeModulation(target, method)
		if err != nil {
			return nil, fmt.Errorf("bvt: change %d: %w", i, err)
		}
		out = append(out, rep)
	}
	return out, nil
}

// DowntimesSeconds extracts the downtime samples in seconds.
func DowntimesSeconds(reports []ChangeReport) []float64 {
	out := make([]float64, len(reports))
	for i, r := range reports {
		out[i] = r.Downtime.Seconds()
	}
	return out
}
