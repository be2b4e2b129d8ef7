package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/controller"
	"repro/internal/failures"
	"repro/internal/gate"
)

// Quick options shared by the tests; individual tests shrink further
// where the full small fleet is not needed.
func quick() Options { return QuickOptions() }

func renderOK(t *testing.T, tab *Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, tab.Title) {
		t.Fatalf("render missing title: %s", out)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("table has no rows")
	}
	return out
}

func TestFigure1(t *testing.T) {
	o := quick()
	res, err := Figure1(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerWavelength) != o.Dataset.Fiber.Wavelengths {
		t.Fatalf("wavelengths = %d", len(res.PerWavelength))
	}
	for _, w := range res.PerWavelength {
		if w.MindB > w.MeandB || w.MaxdB < w.MeandB {
			t.Fatalf("wl %d: min/mean/max ordering broken", w.Wavelength)
		}
		// Time above thresholds is non-increasing in capacity.
		prev := 1.1
		for _, m := range res.Thresholds {
			frac := w.TimeAtCapacity[m.Capacity]
			if frac > prev+1e-12 {
				t.Fatalf("wl %d: time fraction not monotone", w.Wavelength)
			}
			prev = frac
		}
		// Most wavelengths should clear 100 Gbps almost always.
	}
	renderOK(t, res.Table())
}

func TestFigure1Series(t *testing.T) {
	o := quick()
	res, err := Figure1Series(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != o.Dataset.Fiber.Wavelengths {
		t.Fatalf("series = %d", len(res.Series))
	}
	if res.StepHours <= 0 {
		t.Fatalf("step = %v", res.StepHours)
	}
	for w, row := range res.Series {
		if len(row) < 100 || len(row) > 300 {
			t.Fatalf("wl %d has %d points, want ≈ 200", w, len(row))
		}
		for _, v := range row {
			if v < 0 || v > 30 {
				t.Fatalf("wl %d has implausible SNR %v", w, v)
			}
		}
	}
	renderOK(t, res.Table())
}

func TestFigure2a(t *testing.T) {
	res, err := Figure2a(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape: most links have narrow HDR, wide ranges exist.
	if res.FracHDRUnder2 < 0.6 {
		t.Fatalf("HDR<2dB = %v, want most links", res.FracHDRUnder2)
	}
	if res.MeanRange < 3 {
		t.Fatalf("mean range = %v, want wide", res.MeanRange)
	}
	// HDR CDF dominates range CDF (HDR width <= range always).
	for _, x := range []float64{1, 2, 5, 10} {
		if res.HDRCDF.At(x) < res.RangeCDF.At(x)-1e-9 {
			t.Fatalf("HDR CDF below range CDF at %v", x)
		}
	}
	renderOK(t, res.Table())
}

func TestFigure2b(t *testing.T) {
	res, err := Figure2b(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Shares sum to <= 1 (links with no feasible rung excluded).
	var sum float64
	for _, c := range res.Capacities {
		sum += res.ShareAt[c]
	}
	if sum > 1+1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	// Cumulative is monotone and ends near 1.
	prev := 0.0
	for _, c := range res.Capacities {
		if res.CumulativeAt[c] < prev {
			t.Fatal("cumulative not monotone")
		}
		prev = res.CumulativeAt[c]
	}
	if res.FracAtLeast175 < 0.5 {
		t.Fatalf("feasible>=175 = %v, want the majority", res.FracAtLeast175)
	}
	if res.GainTbpsAt2000Links < 80 || res.GainTbpsAt2000Links > 250 {
		t.Fatalf("extrapolated gain = %v Tbps, want the 145 Tbps ballpark", res.GainTbpsAt2000Links)
	}
	renderOK(t, res.Table())
}

func TestFigure3a(t *testing.T) {
	res, err := Figure3a(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerLink) != quick().Dataset.Fiber.Wavelengths {
		t.Fatalf("per-link rows = %d", len(res.PerLink))
	}
	// The paper's shape: failures at 200G (median) at least those at
	// 100G, typically far more.
	if res.Median[200] < res.Median[100] {
		t.Fatalf("median failures at 200G (%d) below 100G (%d)", res.Median[200], res.Median[100])
	}
	if res.Max[200] < res.Max[175] {
		t.Fatalf("max failures at 200G (%d) below 175G (%d)", res.Max[200], res.Max[175])
	}
	renderOK(t, res.Table())
}

func TestFigure3b(t *testing.T) {
	res, err := Figure3b(quick())
	if err != nil {
		t.Fatal(err)
	}
	// 100G failures exist and last hours on average.
	if res.Events[100] == 0 {
		t.Fatal("no 100G failure events")
	}
	if res.MeanHours[100] < 0.25 {
		t.Fatalf("mean failure duration %v h, want hours", res.MeanHours[100])
	}
	for _, c := range res.Capacities {
		if res.Events[c] > 0 && res.P95Hours[c] < res.MedianHours[c] {
			t.Fatalf("p95 < median at %v Gbps", c)
		}
	}
	renderOK(t, res.Table())
}

func TestFigure4(t *testing.T) {
	res, err := Figure4(quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Tickets != 250 {
		t.Fatalf("tickets = %d, want the paper's 250", res.Tickets)
	}
	// Fiber cuts must be a small share of events; opportunity > 0.85.
	if res.Shares.EventShare[failures.CauseFiberCut] > 0.15 {
		t.Fatalf("fiber cut share = %v", res.Shares.EventShare[failures.CauseFiberCut])
	}
	if res.Shares.OpportunityEventShare() < 0.85 {
		t.Fatalf("opportunity = %v", res.Shares.OpportunityEventShare())
	}
	// The SNR-derived cross-validation population exists and agrees on
	// the headline: fiber cuts are rare there too.
	if res.SNRDerivedEvents == 0 {
		t.Fatal("no SNR-derived tickets")
	}
	if res.SNRDerived.EventShare[failures.CauseFiberCut] > 0.2 {
		t.Fatalf("SNR-derived fiber-cut share = %v", res.SNRDerived.EventShare[failures.CauseFiberCut])
	}
	renderOK(t, res.Table())
}

func TestFigure4c(t *testing.T) {
	res, err := Figure4c(quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 {
		t.Fatal("no failure events")
	}
	// All lowest SNRs are below the 6.5 threshold by construction.
	if res.CDF.At(6.5) < 1-1e-9 {
		t.Fatalf("CDF at threshold = %v, want 1", res.CDF.At(6.5))
	}
	if res.FracAbove3 <= 0.05 || res.FracAbove3 >= 0.6 {
		t.Fatalf("frac above 3 dB = %v, want ≈ 0.25", res.FracAbove3)
	}
	renderOK(t, res.Table())
}

func TestFigure5(t *testing.T) {
	o := quick()
	res, err := Figure5(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 3 {
		t.Fatalf("panels = %d", len(res.Panels))
	}
	// EVM and SER increase with constellation density at fixed SNR.
	for i := 1; i < len(res.Panels); i++ {
		if res.Panels[i].SER < res.Panels[i-1].SER {
			t.Fatalf("SER not increasing: %v then %v", res.Panels[i-1].SER, res.Panels[i].SER)
		}
	}
	for _, p := range res.Panels {
		if len(p.Symbols) != o.ConstellationSymbols {
			t.Fatalf("%v symbols = %d", p.Capacity, len(p.Symbols))
		}
		if p.EVM <= 0 {
			t.Fatalf("%v EVM = %v", p.Capacity, p.EVM)
		}
		if p.SNRdB < 12 || p.SNRdB > 22 {
			t.Fatalf("%v estimated SNR = %v, channel is 17 dB", p.Capacity, p.SNRdB)
		}
	}
	renderOK(t, res.Table())
}

func TestFigure6b(t *testing.T) {
	o := quick()
	res, err := Figure6b(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PowerCycle) != o.BVTChanges || len(res.Hot) != o.BVTChanges {
		t.Fatalf("sample counts: %d, %d", len(res.PowerCycle), len(res.Hot))
	}
	if res.PowerCycleMean < 40 || res.PowerCycleMean > 110 {
		t.Fatalf("power-cycle mean = %v s (paper: 68 s)", res.PowerCycleMean)
	}
	if res.HotMean < 0.01 || res.HotMean > 0.09 {
		t.Fatalf("hot mean = %v s (paper: 35 ms)", res.HotMean)
	}
	renderOK(t, res.Table())
}

func TestFigure7(t *testing.T) {
	res, err := Figure7(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Modes) != 2 {
		t.Fatalf("modes = %d", len(res.Modes))
	}
	few, short := res.Modes[0], res.Modes[1]
	// Both satisfy the full 250 Gbps demand.
	if few.Shipped < 249.9 || short.Shipped < 249.9 {
		t.Fatalf("shipped: %v, %v", few.Shipped, short.Shipped)
	}
	// The paper's contrast: few-increases upgrades fewer links than
	// short-paths, which upgrades both and uses one-hop paths.
	if few.Upgrades >= short.Upgrades {
		t.Fatalf("few-increases upgraded %d, short-paths %d", few.Upgrades, short.Upgrades)
	}
	if short.Upgrades != 2 {
		t.Fatalf("short-paths upgraded %d links, want 2", short.Upgrades)
	}
	if short.MeanHops > few.MeanHops {
		t.Fatalf("short-paths hops %v > few-increases %v", short.MeanHops, few.MeanHops)
	}
	renderOK(t, res.Table())
}

func TestFigure8(t *testing.T) {
	res, err := Figure8(quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.WidestBefore != 100 {
		t.Fatalf("widest before = %v", res.WidestBefore)
	}
	if res.WidestAfter != 200 {
		t.Fatalf("widest after = %v", res.WidestAfter)
	}
	if res.TotalAfter != 200 {
		t.Fatalf("total after = %v (gadget must cap at 200)", res.TotalAfter)
	}
	if !res.UpgradeInstructed {
		t.Fatal("translation lost the upgrade")
	}
	renderOK(t, res.Table())
}

func TestTheorem1(t *testing.T) {
	o := quick()
	res, err := Theorem1(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != o.Trials*3 {
		t.Fatalf("trials = %d", res.Trials)
	}
	if res.Holds != res.Trials {
		t.Fatalf("theorem held in %d/%d instances", res.Holds, res.Trials)
	}
	if res.MeanFull < res.MeanBase {
		t.Fatal("upgrades reduced mean capacity")
	}
	renderOK(t, res.Table())
}

func TestThroughputGains(t *testing.T) {
	res, err := ThroughputGains(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Policies) != 3 {
		t.Fatalf("policies = %d", len(res.Policies))
	}
	if res.GainOverStatic <= 1 {
		t.Fatalf("dynamic gain = %v, want > 1 under oversubscription", res.GainOverStatic)
	}
	// Dynamic must not satisfy less than static-100.
	var static, dynamic float64
	for _, p := range res.Policies {
		switch p.Policy.String() {
		case "static-100G":
			static = p.MeanSatisfied
		case "dynamic":
			dynamic = p.MeanSatisfied
		}
	}
	if dynamic < static {
		t.Fatalf("dynamic satisfied %v < static %v", dynamic, static)
	}
	renderOK(t, res.Table())
}

func TestAvailabilityGains(t *testing.T) {
	res, err := AvailabilityGains(quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatal("no failures detected")
	}
	if res.Avoidable == 0 {
		t.Fatal("no avoidable failures — calibration broken")
	}
	if res.AvoidableFrac <= 0.05 || res.AvoidableFrac >= 0.6 {
		t.Fatalf("avoidable fraction = %v, want ≈ 0.25", res.AvoidableFrac)
	}
	if res.MeanAvailabilityFlap < res.MeanAvailabilityStatic {
		t.Fatal("flap rule reduced availability")
	}
	renderOK(t, res.Table())
}

func TestThresholdSensitivity(t *testing.T) {
	res, err := ThresholdSensitivity(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Fractions decrease as thresholds rise.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].FracAtLeast175 > res.Points[i-1].FracAtLeast175+1e-9 {
			t.Fatal("feasible fraction not decreasing with threshold shift")
		}
		if res.Points[i].GainTbpsAt2000 > res.Points[i-1].GainTbpsAt2000+1e-9 {
			t.Fatal("gain not decreasing with threshold shift")
		}
	}
	// Qualitative conclusion survives: most links gain >= 75 G at +1 dB.
	if last := res.Points[len(res.Points)-1]; last.FracGainAtLeast75 < 0.5 {
		t.Fatalf("+1 dB shift kills the conclusion: %v", last.FracGainAtLeast75)
	}
	renderOK(t, res.Table())
}

func TestControllerAblation(t *testing.T) {
	// Every change in the scenario is a forced downgrade or a restore:
	// the TE never selects a fake edge, so no variant's plan upgrades or
	// budget-drops an edge, and no order goes above the 100 G floor —
	// over the figure's full run.
	o := quick()
	o.SimRounds = DefaultOptions().SimRounds
	steps := 0
	res, err := controllerAblation(o, func(variant string, p *controller.Plan) {
		steps++
		for e, v := range p.Verdicts {
			if v == gate.VerdictUpgraded || v == gate.VerdictBudgetDropped {
				t.Errorf("%s plan %d: edge %d verdict %v", variant, steps, e, v)
			}
		}
		for _, ord := range p.Orders {
			if ord.To > 100 {
				t.Errorf("%s plan %d: order %+v above 100 G", variant, steps, ord)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if steps != 4*res.Rounds {
		t.Fatalf("%d plans seen, want %d", steps, 4*res.Rounds)
	}
	if len(res.Variants) != 4 {
		t.Fatalf("variants = %d", len(res.Variants))
	}
	var plain, damped *ControllerVariant
	for i := range res.Variants {
		switch res.Variants[i].Name {
		case "no safeguards":
			plain = &res.Variants[i]
		case "flap damping":
			damped = &res.Variants[i]
		}
	}
	if plain == nil || damped == nil {
		t.Fatal("variants missing")
	}
	if damped.Changes >= plain.Changes {
		t.Fatalf("damping did not cut churn: %d vs %d", damped.Changes, plain.Changes)
	}
	if damped.DarkRounds != 0 {
		t.Fatal("damping produced dark links")
	}
	renderOK(t, res.Table())
}

func TestQuickVsDefaultOptions(t *testing.T) {
	q, d := QuickOptions(), DefaultOptions()
	if q.Dataset.Links() >= d.Dataset.Links() {
		t.Fatal("quick options not smaller")
	}
	if d.BVTChanges != 200 {
		t.Fatalf("default BVT changes = %d, want the paper's 200", d.BVTChanges)
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tab := &Table{
		Title:   "x",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"wide-cell-content", "1"}},
		Notes:   []string{"n"},
	}
	out := renderOK(t, tab)
	if !strings.Contains(out, "note: n") {
		t.Fatal("note missing")
	}
}
