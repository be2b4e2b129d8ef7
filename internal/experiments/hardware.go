package experiments

import (
	"fmt"

	"repro/internal/bvt"
	"repro/internal/modulation"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Figure5Result is the constellation testbed view: QPSK / 8QAM / 16QAM
// received symbols and their quality metrics at the testbed SNR.
type Figure5Result struct {
	Panels []Figure5Panel
}

// Figure5Panel is one constellation diagram.
type Figure5Panel struct {
	Capacity modulation.Gbps
	Format   modulation.Format
	Symbols  []modulation.Symbol
	// EVM is the decision-directed error-vector magnitude; SNRdB the
	// SNR the DSP would report back from it; SER the theoretical
	// symbol error rate at the channel SNR.
	EVM, SNRdB, SER float64
}

// Figure5 synthesizes the three constellations of the paper's testbed
// (100, 150, 200 Gbps) at a representative channel SNR.
func Figure5(o Options) (*Figure5Result, error) {
	const channelSNR = 17.0 // testbed-quality channel
	r := rng.New(o.Seed ^ 0x515)
	res := &Figure5Result{}
	for _, p := range []struct {
		cap    modulation.Gbps
		format modulation.Format
	}{
		{100, modulation.FormatQPSK},
		{150, modulation.Format8QAM},
		{200, modulation.Format16QAM},
	} {
		c, err := modulation.IdealConstellation(p.format)
		if err != nil {
			return nil, err
		}
		syms := c.Received(r.Split(), o.ConstellationSymbols, channelSNR)
		evm := c.EVM(syms)
		res.Panels = append(res.Panels, Figure5Panel{
			Capacity: p.cap,
			Format:   p.format,
			Symbols:  syms,
			EVM:      evm,
			SNRdB:    modulation.EstimatedSNRdB(evm),
			SER:      modulation.TheoreticalSER(p.format, channelSNR),
		})
	}
	return res, nil
}

// Table renders Figure 5 metrics (the scatter itself is in Symbols).
func (r *Figure5Result) Table() *Table {
	t := &Table{
		Title:   "Figure 5: constellation diagrams of dynamic capacity modes",
		Columns: []string{"capacity Gbps", "format", "symbols", "EVM", "est SNR dB", "theoretical SER"},
	}
	for _, p := range r.Panels {
		t.Rows = append(t.Rows, []string{
			f(float64(p.Capacity)), p.Format.String(),
			fmt.Sprintf("%d", len(p.Symbols)),
			fmt.Sprintf("%.4f", p.EVM), f2(p.SNRdB),
			fmt.Sprintf("%.2e", p.SER),
		})
	}
	t.Notes = append(t.Notes, "denser constellations at the same channel SNR show higher EVM/SER — why higher rates need more SNR")
	return t
}

// Figure6bResult is the modulation-change latency comparison.
type Figure6bResult struct {
	// PowerCycle and Hot are the downtime samples (seconds) of the two
	// procedures.
	PowerCycle, Hot []float64
	// Means and percentiles back the headline numbers.
	PowerCycleMean, HotMean float64
	PowerCycleCDF, HotCDF   stats.CDF
}

// Figure6b runs the reconfiguration testbed: o.BVTChanges modulation
// changes cycling 100→150→200 Gbps, once with the power-cycle firmware
// flow and once with the laser kept on.
func Figure6b(o Options) (*Figure6bResult, error) {
	caps := []modulation.Gbps{100, 150, 200}
	cold, err := bvt.Testbed(bvt.Config{
		InitialMode: 100, ChannelSNRdB: 20, Seed: o.Seed ^ 0x6b,
	}, caps, o.BVTChanges, bvt.MethodPowerCycle)
	if err != nil {
		return nil, err
	}
	hot, err := bvt.Testbed(bvt.Config{
		InitialMode: 100, ChannelSNRdB: 20, Seed: o.Seed ^ 0x6b,
	}, caps, o.BVTChanges, bvt.MethodHot)
	if err != nil {
		return nil, err
	}
	res := &Figure6bResult{
		PowerCycle: bvt.DowntimesSeconds(cold),
		Hot:        bvt.DowntimesSeconds(hot),
	}
	res.PowerCycleMean = stats.Mean(res.PowerCycle)
	res.HotMean = stats.Mean(res.Hot)
	var errCDF error
	res.PowerCycleCDF, errCDF = stats.NewCDF(res.PowerCycle)
	if errCDF != nil {
		return nil, errCDF
	}
	res.HotCDF, errCDF = stats.NewCDF(res.Hot)
	if errCDF != nil {
		return nil, errCDF
	}
	return res, nil
}

// Table renders Figure 6b percentiles.
func (r *Figure6bResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 6b: time to change modulation (%d changes each)", len(r.PowerCycle)),
		Columns: []string{"percentile", "mod change s", "efficient mod change s"},
	}
	for _, p := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99} {
		t.Rows = append(t.Rows, []string{
			pct(p),
			f2(stats.Quantile(r.PowerCycle, p)),
			fmt.Sprintf("%.4f", stats.Quantile(r.Hot, p)),
		})
	}
	t.Rows = append(t.Rows, []string{"mean", f2(r.PowerCycleMean), fmt.Sprintf("%.4f", r.HotMean)})
	t.Notes = append(t.Notes,
		"paper: 68 s average downtime with today's firmware; 35 ms with the laser kept on")
	return t
}
