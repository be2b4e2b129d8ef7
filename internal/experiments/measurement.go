package experiments

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/failures"
	"repro/internal/modulation"
	"repro/internal/rng"
	"repro/internal/snr"
	"repro/internal/stats"
)

// Figure1Result is the SNR evolution of one fiber's wavelengths with
// the capacity thresholds overlaid (Figure 1).
type Figure1Result struct {
	// PerWavelength summarizes each of the fiber's wavelengths.
	PerWavelength []Figure1Wavelength
	// Thresholds is the dashed-line ladder the figure overlays.
	Thresholds []modulation.Mode
}

// Figure1Wavelength is one line of the plot.
type Figure1Wavelength struct {
	Wavelength    int
	MeandB, MindB float64
	MaxdB         float64
	// TimeAtCapacity[c] is the fraction of samples whose SNR clears
	// capacity c's threshold — "the feasible link capacity at and above
	// a particular SNR".
	TimeAtCapacity map[modulation.Gbps]float64
}

// Figure1 regenerates the single-fiber view.
func Figure1(o Options) (*Figure1Result, error) {
	fiber, err := dataset.GenerateFiberSeries(o.Dataset, 0)
	if err != nil {
		return nil, err
	}
	res := &Figure1Result{Thresholds: o.Dataset.Ladder.Modes()}
	for w, s := range fiber.Series {
		sum, err := stats.Summarize(s.Samples)
		if err != nil {
			return nil, err
		}
		wl := Figure1Wavelength{
			Wavelength: w, MeandB: sum.Mean, MindB: sum.Min, MaxdB: sum.Max,
			TimeAtCapacity: make(map[modulation.Gbps]float64),
		}
		for _, m := range o.Dataset.Ladder.Modes() {
			wl.TimeAtCapacity[m.Capacity] = stats.FractionAtLeast(s.Samples, m.MinSNRdB)
		}
		res.PerWavelength = append(res.PerWavelength, wl)
	}
	return res, nil
}

// Figure1SeriesResult carries the downsampled per-wavelength SNR time
// series behind Figure 1's plot, for CSV export into a plotting
// pipeline (`rwc-experiments -figure fig1series -format csv`).
type Figure1SeriesResult struct {
	// Hours between consecutive points.
	StepHours float64
	// Series[w] is wavelength w's downsampled SNR trace.
	Series [][]float64
}

// Figure1Series regenerates fiber 0's traces downsampled to ≈200
// points per wavelength.
func Figure1Series(o Options) (*Figure1SeriesResult, error) {
	fiber, err := dataset.GenerateFiberSeries(o.Dataset, 0)
	if err != nil {
		return nil, err
	}
	const targetPoints = 200
	res := &Figure1SeriesResult{}
	for _, s := range fiber.Series {
		stride := len(s.Samples) / targetPoints
		if stride < 1 {
			stride = 1
		}
		res.StepHours = float64(stride) * snr.SampleInterval.Hours()
		var row []float64
		for i := 0; i < len(s.Samples); i += stride {
			// Keep the minimum within the stride window so dips survive
			// downsampling (they are the plot's whole point).
			lo := s.Samples[i]
			for j := i; j < i+stride && j < len(s.Samples); j++ {
				if s.Samples[j] < lo {
					lo = s.Samples[j]
				}
			}
			row = append(row, lo)
		}
		res.Series = append(res.Series, row)
	}
	return res, nil
}

// Table renders the series in long form: wavelength, time, SNR.
func (r *Figure1SeriesResult) Table() *Table {
	t := &Table{
		Title:   "Figure 1 series: downsampled SNR traces (window-min preserving dips)",
		Columns: []string{"wavelength", "t_hours", "snr_db"},
	}
	for w, row := range r.Series {
		for i, v := range row {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", w),
				fmt.Sprintf("%.1f", float64(i)*r.StepHours),
				f2(v),
			})
		}
	}
	t.Notes = append(t.Notes, "long-form series for plotting; pair with -format csv")
	return t
}

// Table renders Figure 1.
func (r *Figure1Result) Table() *Table {
	t := &Table{
		Title:   "Figure 1: SNR of wavelengths on one WAN fiber (2.5y @ 15 min)",
		Columns: []string{"wl", "mean dB", "min dB", "max dB"},
	}
	for _, m := range r.Thresholds {
		t.Columns = append(t.Columns, fmt.Sprintf("t>=%vG", float64(m.Capacity)))
	}
	for _, w := range r.PerWavelength {
		row := []string{
			fmt.Sprintf("%02d", w.Wavelength), f2(w.MeandB), f2(w.MindB), f2(w.MaxdB),
		}
		for _, m := range r.Thresholds {
			row = append(row, pct(w.TimeAtCapacity[m.Capacity]))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"thresholds (dB): "+thresholdNote(r.Thresholds),
		"SNR required for 100 Gbps is 6.5 dB; wavelengths sit far above it (the paper's margin observation)")
	return t
}

func thresholdNote(modes []modulation.Mode) string {
	s := ""
	for i, m := range modes {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%vG@%.1f", float64(m.Capacity), m.MinSNRdB)
	}
	return s
}

// Figure2aResult holds the two SNR-variation CDFs (Figure 2a).
type Figure2aResult struct {
	RangeCDF stats.CDF
	HDRCDF   stats.CDF
	// FracHDRUnder2 is the headline "HDR is less than 2 dB for 83%".
	FracHDRUnder2 float64
	MeanRange     float64
	Links         int
}

// Figure2a regenerates the SNR-variation CDFs.
func Figure2a(o Options) (*Figure2aResult, error) {
	fs, err := dataset.AnalyzeFleet(o.datasetConfig())
	if err != nil {
		return nil, err
	}
	ranges := fs.Ranges()
	widths := fs.HDRWidths()
	rc, err := stats.NewCDF(ranges)
	if err != nil {
		return nil, err
	}
	hc, err := stats.NewCDF(widths)
	if err != nil {
		return nil, err
	}
	return &Figure2aResult{
		RangeCDF:      rc,
		HDRCDF:        hc,
		FracHDRUnder2: stats.FractionBelow(widths, 2),
		MeanRange:     stats.Mean(ranges),
		Links:         len(fs.Links),
	}, nil
}

// Table renders Figure 2a as CDF samples.
func (r *Figure2aResult) Table() *Table {
	t := &Table{
		Title:   "Figure 2a: CDF of SNR variation (range vs 95% HDR width)",
		Columns: []string{"dB", "CDF range", "CDF HDR"},
	}
	for _, x := range []float64{0.5, 1, 2, 3, 5, 8, 10, 12, 15, 18} {
		t.Rows = append(t.Rows, []string{f2(x), f2(r.RangeCDF.At(x)), f2(r.HDRCDF.At(x))})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("HDR < 2 dB for %s of %d links (paper: 83%%)", pct(r.FracHDRUnder2), r.Links),
		fmt.Sprintf("mean SNR range %.1f dB (paper: nearly 12 dB)", r.MeanRange))
	return t
}

// Figure2bResult is the feasible-capacity CDF (Figure 2b).
type Figure2bResult struct {
	// ShareAt[c] is the fraction of links whose feasible capacity is
	// exactly c; CumulativeAt is P(feasible <= c).
	Capacities   []modulation.Gbps
	ShareAt      map[modulation.Gbps]float64
	CumulativeAt map[modulation.Gbps]float64
	// FracAtLeast175 is the headline 80%.
	FracAtLeast175 float64
	// GainTbps is the aggregate capacity gain (paper: 145 Tbps at 2000
	// links) at this fleet's scale, plus the 2000-link extrapolation.
	GainTbps            float64
	GainTbpsAt2000Links float64
	Links               int
}

// Figure2b regenerates the feasible-capacity distribution.
func Figure2b(o Options) (*Figure2bResult, error) {
	fs, err := dataset.AnalyzeFleet(o.datasetConfig())
	if err != nil {
		return nil, err
	}
	caps := fs.FeasibleCapacities()
	res := &Figure2bResult{
		Capacities:   o.Dataset.Ladder.Capacities(),
		ShareAt:      make(map[modulation.Gbps]float64),
		CumulativeAt: make(map[modulation.Gbps]float64),
		Links:        len(fs.Links),
	}
	cum := 0.0
	for _, c := range res.Capacities {
		share := 0.0
		for _, v := range caps {
			if stats.ApproxInDelta(v, float64(c), stats.DefaultTol) {
				share++
			}
		}
		share /= float64(len(caps))
		cum += share
		res.ShareAt[c] = share
		res.CumulativeAt[c] = cum
	}
	res.FracAtLeast175 = stats.FractionAtLeast(caps, 175)
	res.GainTbps = fs.CapacityGainGbps / 1000
	res.GainTbpsAt2000Links = fs.CapacityGainGbps / float64(len(fs.Links)) * 2000 / 1000
	return res, nil
}

// Table renders Figure 2b.
func (r *Figure2bResult) Table() *Table {
	t := &Table{
		Title:   "Figure 2b: feasible link capacity from HDR lower bound",
		Columns: []string{"capacity Gbps", "share", "CDF"},
	}
	for _, c := range r.Capacities {
		t.Rows = append(t.Rows, []string{
			f(float64(c)), pct(r.ShareAt[c]), f2(r.CumulativeAt[c]),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("feasible >= 175 Gbps for %s of links (paper: 80%%)", pct(r.FracAtLeast175)),
		fmt.Sprintf("aggregate gain %.1f Tbps over %d links; extrapolated to 2000 links: %.0f Tbps (paper: 145 Tbps)",
			r.GainTbps, r.Links, r.GainTbpsAt2000Links))
	return t
}

// Figure3aResult is the failures-vs-capacity counterfactual on a
// high-quality fiber (Figure 3a).
type Figure3aResult struct {
	Capacities []modulation.Gbps
	// PerLink[w][c] is wavelength w's failure count at capacity c.
	PerLink []map[modulation.Gbps]int
	// Min/Median/Max summarize the per-capacity distribution.
	Min, Median, Max map[modulation.Gbps]int
	FiberIndex       int
}

// Figure3a finds the best fiber (every wavelength can run every rung)
// and counts counterfactual failures per capacity.
func Figure3a(o Options) (*Figure3aResult, error) {
	best, err := bestFiber(o.Dataset)
	if err != nil {
		return nil, err
	}
	fiber, err := dataset.GenerateFiberSeries(o.Dataset, best)
	if err != nil {
		return nil, err
	}
	res := &Figure3aResult{
		Capacities: o.Dataset.Ladder.Capacities(),
		FiberIndex: best,
		Min:        map[modulation.Gbps]int{},
		Median:     map[modulation.Gbps]int{},
		Max:        map[modulation.Gbps]int{},
	}
	counts := make(map[modulation.Gbps][]float64)
	for _, s := range fiber.Series {
		perCap := make(map[modulation.Gbps]int)
		for _, m := range o.Dataset.Ladder.Modes() {
			n := failures.CountAtThreshold(s.Samples, m.MinSNRdB)
			perCap[m.Capacity] = n
			counts[m.Capacity] = append(counts[m.Capacity], float64(n))
		}
		res.PerLink = append(res.PerLink, perCap)
	}
	for _, c := range res.Capacities {
		xs := counts[c]
		sum, err := stats.Summarize(xs)
		if err != nil {
			return nil, err
		}
		res.Min[c] = int(sum.Min)
		res.Median[c] = int(sum.Median)
		res.Max[c] = int(sum.Max)
	}
	return res, nil
}

// bestFiber picks the fiber with the highest worst-wavelength baseline
// (cheap proxy using the generative baselines, matching "a high quality
// WAN fiber where each link ... has a high enough SNR").
func bestFiber(cfg dataset.Config) (int, error) {
	best, bestScore := 0, -1.0
	for fIdx := 0; fIdx < cfg.Fibers; fIdx++ {
		fiber, err := dataset.GenerateFiberSeries(cfg, fIdx)
		if err != nil {
			return 0, err
		}
		worst := fiber.Series[0].BaselinedB
		for _, s := range fiber.Series {
			if s.BaselinedB < worst {
				worst = s.BaselinedB
			}
		}
		if worst > bestScore {
			bestScore = worst
			best = fIdx
		}
	}
	return best, nil
}

// Table renders Figure 3a.
func (r *Figure3aResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 3a: failures vs configured capacity (fiber %d, %d wavelengths)", r.FiberIndex, len(r.PerLink)),
		Columns: []string{"capacity Gbps", "min", "median", "max"},
	}
	for _, c := range r.Capacities {
		t.Rows = append(t.Rows, []string{
			f(float64(c)),
			fmt.Sprintf("%d", r.Min[c]),
			fmt.Sprintf("%d", r.Median[c]),
			fmt.Sprintf("%d", r.Max[c]),
		})
	}
	t.Notes = append(t.Notes, "paper: no significant increase up to 175 Gbps; large jump for some links at 200 Gbps")
	return t
}

// Figure3bResult is the failure-duration distribution per capacity
// (Figure 3b), over links where that capacity is feasible.
type Figure3bResult struct {
	Capacities []modulation.Gbps
	// MeanHours/MedianHours/P95Hours summarize failure durations.
	MeanHours, MedianHours, P95Hours map[modulation.Gbps]float64
	Events                           map[modulation.Gbps]int
}

// Figure3b regenerates the duration analysis.
func Figure3b(o Options) (*Figure3bResult, error) {
	durations := make(map[modulation.Gbps][]float64)
	ladder := o.Dataset.Ladder
	err := dataset.Stream(o.datasetConfig(), func(meta dataset.LinkMeta, s *snr.Series) error {
		hdr, err := stats.HDR(s.Samples, dataset.HDRMass)
		if err != nil {
			return err
		}
		for _, m := range ladder.Modes() {
			// "only if the capacity is feasible as per the link's SNR".
			if hdr.Lo < m.MinSNRdB {
				continue
			}
			for _, sp := range failures.Detect(s.Samples, m.MinSNRdB) {
				durations[m.Capacity] = append(durations[m.Capacity], sp.Hours())
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Figure3bResult{
		Capacities:  ladder.Capacities(),
		MeanHours:   map[modulation.Gbps]float64{},
		MedianHours: map[modulation.Gbps]float64{},
		P95Hours:    map[modulation.Gbps]float64{},
		Events:      map[modulation.Gbps]int{},
	}
	for _, c := range res.Capacities {
		xs := durations[c]
		res.Events[c] = len(xs)
		if len(xs) == 0 {
			continue
		}
		res.MeanHours[c] = stats.Mean(xs)
		res.MedianHours[c] = stats.Quantile(xs, 0.5)
		res.P95Hours[c] = stats.Quantile(xs, 0.95)
	}
	return res, nil
}

// Table renders Figure 3b.
func (r *Figure3bResult) Table() *Table {
	t := &Table{
		Title:   "Figure 3b: duration of link failures vs configured capacity (feasible links only)",
		Columns: []string{"capacity Gbps", "events", "mean h", "median h", "p95 h"},
	}
	for _, c := range r.Capacities {
		t.Rows = append(t.Rows, []string{
			f(float64(c)),
			fmt.Sprintf("%d", r.Events[c]),
			f2(r.MeanHours[c]), f2(r.MedianHours[c]), f2(r.P95Hours[c]),
		})
	}
	t.Notes = append(t.Notes, "paper: failures last several hours on average at every capacity")
	return t
}

// Figure4Result covers Figures 4a and 4b: root-cause shares by outage
// duration and by event frequency, from two independent sources: the
// calibrated operator-ticket model (the paper's manual analysis) and
// the synthetic tickets attached to SNR-detected failure events (a
// cross-validation only a simulation can do).
type Figure4Result struct {
	Shares  failures.CauseShares
	Tickets int
	// SNRDerived summarizes the tickets attached to the fleet's
	// detected failures; SNRDerivedEvents counts them.
	SNRDerived       failures.CauseShares
	SNRDerivedEvents int
}

// Figure4 generates the calibrated seven-month ticket set (250 events)
// and summarizes it, alongside the SNR-derived ticket population.
func Figure4(o Options) (*Figure4Result, error) {
	model := failures.DefaultTicketModel()
	n := 250
	tickets, err := model.Generate(n, rng.New(o.Seed^0xf16))
	if err != nil {
		return nil, err
	}
	res := &Figure4Result{Shares: failures.Summarize(tickets), Tickets: n}
	fs, err := dataset.AnalyzeFleet(o.datasetConfig())
	if err != nil {
		return nil, err
	}
	res.SNRDerived = failures.Summarize(fs.FailureTickets)
	res.SNRDerivedEvents = len(fs.FailureTickets)
	return res, nil
}

// Table renders Figures 4a/4b.
func (r *Figure4Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 4a/4b: failure root causes (%d tickets, 7 months)", r.Tickets),
		Columns: []string{"cause", "duration share (4a)", "event share (4b)", "SNR-derived events"},
	}
	for _, c := range failures.Causes() {
		t.Rows = append(t.Rows, []string{
			c.String(),
			pct(r.Shares.DurationShare[c]),
			pct(r.Shares.EventShare[c]),
			pct(r.SNRDerived.EventShare[c]),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("opportunity area (non-fiber-cut events): %s (paper: over 90%%)", pct(r.Shares.OpportunityEventShare())),
		fmt.Sprintf("last column: causes assigned to the %d SNR-detected fleet failures (loss-of-light conditioned)", r.SNRDerivedEvents),
		"paper anchors: maintenance ~25% of events / ~20% of duration; fiber cuts ~5% of events / ~10% of duration")
	return t
}

// Figure4cResult is the CDF of the lowest SNR at failure events.
type Figure4cResult struct {
	CDF stats.CDF
	// FracAbove3 is the headline: ≥25% of failures keep ≥3 dB
	// (enough for 50 Gbps).
	FracAbove3 float64
	Events     int
}

// Figure4c regenerates the failure-SNR distribution.
func Figure4c(o Options) (*Figure4cResult, error) {
	fs, err := dataset.AnalyzeFleet(o.datasetConfig())
	if err != nil {
		return nil, err
	}
	if len(fs.FailureLowestSNR) == 0 {
		return nil, fmt.Errorf("experiments: no failures in fleet — scale too small")
	}
	c, err := stats.NewCDF(fs.FailureLowestSNR)
	if err != nil {
		return nil, err
	}
	return &Figure4cResult{
		CDF:        c,
		FracAbove3: stats.FractionAtLeast(fs.FailureLowestSNR, 3),
		Events:     len(fs.FailureLowestSNR),
	}, nil
}

// Table renders Figure 4c.
func (r *Figure4cResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 4c: lowest SNR at link failure events (%d events)", r.Events),
		Columns: []string{"SNR dB", "CDF"},
	}
	for _, x := range []float64{0, 0.5, 1, 2, 3, 4, 5, 6, 6.5} {
		t.Rows = append(t.Rows, []string{f2(x), f2(r.CDF.At(x))})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("failures with lowest SNR >= 3.0 dB: %s (paper: nearly 25%%) — avoidable at 50 Gbps", pct(r.FracAbove3)))
	return t
}
