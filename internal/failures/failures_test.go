package failures

import (
	"math"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/snr"
)

func TestDetectBasic(t *testing.T) {
	// Threshold 6.5: two failure runs.
	s := []float64{10, 10, 5, 4, 10, 10, 2, 10}
	spans := Detect(s, 6.5)
	if len(spans) != 2 {
		t.Fatalf("got %d spans: %+v", len(spans), spans)
	}
	if spans[0].Start != 2 || spans[0].End != 4 || spans[0].LowestSNR != 4 {
		t.Fatalf("span 0 wrong: %+v", spans[0])
	}
	if spans[1].Start != 6 || spans[1].End != 7 || spans[1].LowestSNR != 2 {
		t.Fatalf("span 1 wrong: %+v", spans[1])
	}
}

func TestDetectNoFailures(t *testing.T) {
	if spans := Detect([]float64{10, 11, 12}, 6.5); spans != nil {
		t.Fatalf("unexpected spans: %+v", spans)
	}
}

func TestDetectTrailingFailure(t *testing.T) {
	spans := Detect([]float64{10, 3, 2}, 6.5)
	if len(spans) != 1 || spans[0].End != 3 || spans[0].LowestSNR != 2 {
		t.Fatalf("trailing span wrong: %+v", spans)
	}
}

func TestDetectAllBelow(t *testing.T) {
	spans := Detect([]float64{1, 2, 3}, 6.5)
	if len(spans) != 1 || spans[0].Start != 0 || spans[0].End != 3 {
		t.Fatalf("all-below span wrong: %+v", spans)
	}
}

func TestDetectBoundaryEquality(t *testing.T) {
	// Exactly at threshold is NOT a failure (strictly below fails).
	spans := Detect([]float64{6.5, 6.5}, 6.5)
	if spans != nil {
		t.Fatalf("threshold-equal samples failed: %+v", spans)
	}
}

func TestDetectEmpty(t *testing.T) {
	if Detect(nil, 6.5) != nil {
		t.Fatal("nil samples produced spans")
	}
}

func TestCountAtThresholdMonotone(t *testing.T) {
	// Counterfactual: higher thresholds can only produce >= as much
	// total downtime, and the paper's Figure 3a rests on counts rising
	// with capacity. Verify downtime monotonicity on a noisy trace.
	r := rng.New(5)
	p := snr.Params{
		BaselinedB: 12, JitterStd: 1.5, JitterPhi: 0.9,
		DipsPerYear: 10, DipDepthMu: math.Log(6), DipDepthSigma: 0.5,
		DipDurationMuHours: math.Log(4), DipDurationSigma: 0.5,
	}
	series, err := snr.Generate(p, 30000, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	prevDown := time.Duration(0)
	for _, th := range []float64{3, 6.5, 8.5, 10.5, 13} {
		var down time.Duration
		for _, s := range Detect(series.Samples, th) {
			down += s.Duration()
		}
		if down < prevDown {
			t.Fatalf("downtime decreased at threshold %v", th)
		}
		prevDown = down
	}
}

func TestSpanDurationHours(t *testing.T) {
	s := Span{Start: 0, End: 8}
	if s.Duration() != 2*time.Hour {
		t.Fatalf("duration = %v", s.Duration())
	}
	if s.Hours() != 2 {
		t.Fatalf("hours = %v", s.Hours())
	}
}

func TestAvailability(t *testing.T) {
	s := []float64{10, 2, 2, 10} // 2 of 4 samples down
	if a := Availability(s, 6.5); a != 0.5 {
		t.Fatalf("availability = %v", a)
	}
	if a := Availability(nil, 6.5); a != 0 {
		t.Fatalf("empty availability = %v", a)
	}
	if a := Availability([]float64{10, 10}, 6.5); a != 1 {
		t.Fatalf("perfect availability = %v", a)
	}
}

func TestAvoidableAt(t *testing.T) {
	// SNR fell to 4 dB: below the 6.5 dB 100G threshold but above the
	// 3.0 dB 50G threshold → avoidable by flapping to 50 Gbps.
	s := Span{LowestSNR: 4}
	if !s.AvoidableAt(3.0) {
		t.Fatal("4 dB failure should be avoidable at 3 dB fallback")
	}
	dark := Span{LowestSNR: snr.LossOfLightdB}
	if dark.AvoidableAt(3.0) {
		t.Fatal("loss of light cannot be avoided")
	}
}

func TestCauseStrings(t *testing.T) {
	for _, c := range Causes() {
		if c.String() == "" {
			t.Fatalf("empty string for cause %d", int(c))
		}
	}
	if Cause(99).String() != "Cause(99)" {
		t.Fatal("unknown cause string")
	}
	if len(Causes()) != NumCauses {
		t.Fatal("Causes() incomplete")
	}
}

func TestDefaultTicketModelValid(t *testing.T) {
	m := DefaultTicketModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Published anchors.
	if m.FreqShare[CauseMaintenance] != 0.25 {
		t.Fatalf("maintenance freq = %v", m.FreqShare[CauseMaintenance])
	}
	if m.FreqShare[CauseFiberCut] != 0.05 {
		t.Fatalf("fiber cut freq = %v", m.FreqShare[CauseFiberCut])
	}
	// Fiber cuts are rare but long: their mean must exceed the others'.
	for c := 0; c < NumCauses; c++ {
		if c != int(CauseFiberCut) && m.MeanHours[CauseFiberCut] <= m.MeanHours[c] {
			t.Fatalf("fiber cut mean %v not the longest (vs %v for %v)",
				m.MeanHours[CauseFiberCut], m.MeanHours[c], Cause(c))
		}
	}
}

func TestTicketModelValidation(t *testing.T) {
	m := DefaultTicketModel()
	m.FreqShare[0] = -0.1
	if err := m.Validate(); err == nil {
		t.Fatal("negative share accepted")
	}
	m = DefaultTicketModel()
	m.FreqShare[0] = 0.9 // shares no longer sum to 1
	if err := m.Validate(); err == nil {
		t.Fatal("non-normalized shares accepted")
	}
	m = DefaultTicketModel()
	m.MeanHours[1] = 0
	if err := m.Validate(); err == nil {
		t.Fatal("zero mean accepted")
	}
	m = DefaultTicketModel()
	m.SigmaLog = -1
	if err := m.Validate(); err == nil {
		t.Fatal("negative sigma accepted")
	}
}

func TestGenerateTicketsShares(t *testing.T) {
	// The paper's Figure 4a/4b shares must emerge from the generator.
	m := DefaultTicketModel()
	tickets, err := m.Generate(20000, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(tickets)
	wantEvents := []float64{0.25, 0.05, 0.30, 0.40}
	wantDur := []float64{0.20, 0.10, 0.40, 0.30}
	for c := 0; c < NumCauses; c++ {
		if math.Abs(s.EventShare[c]-wantEvents[c]) > 0.02 {
			t.Errorf("%v event share = %v, want ≈ %v", Cause(c), s.EventShare[c], wantEvents[c])
		}
		if math.Abs(s.DurationShare[c]-wantDur[c]) > 0.03 {
			t.Errorf("%v duration share = %v, want ≈ %v", Cause(c), s.DurationShare[c], wantDur[c])
		}
	}
	// Over 90% of events are an opportunity (non-fiber-cut).
	if s.OpportunityEventShare() < 0.9 {
		t.Errorf("opportunity share = %v, want > 0.9", s.OpportunityEventShare())
	}
}

func TestGenerateTicketsDurationsSeveralHours(t *testing.T) {
	m := DefaultTicketModel()
	tickets, _ := m.Generate(5000, rng.New(13))
	var total time.Duration
	for _, tk := range tickets {
		if tk.Duration <= 0 {
			t.Fatal("non-positive outage duration")
		}
		total += tk.Duration
	}
	mean := total.Hours() / float64(len(tickets))
	if mean < 3 || mean > 8 {
		t.Fatalf("mean outage = %v h, want ≈ 5", mean)
	}
}

func TestGenerateErrors(t *testing.T) {
	m := DefaultTicketModel()
	if _, err := m.Generate(-1, rng.New(1)); err == nil {
		t.Fatal("negative count accepted")
	}
	m.SigmaLog = -1
	if _, err := m.Generate(10, rng.New(1)); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Total != 0 || s.TotalDuration != 0 {
		t.Fatal("empty summary non-zero")
	}
	// Shares all zero; opportunity = 1 (vacuously no fiber cuts).
	if s.OpportunityEventShare() != 1 {
		t.Fatalf("opportunity = %v", s.OpportunityEventShare())
	}
}

func TestSummarizeSkipsUnknownCause(t *testing.T) {
	s := Summarize([]Ticket{{Cause: Cause(77), Duration: time.Hour}, {Cause: CauseHardware, Duration: time.Hour}})
	if s.EventShare[CauseHardware] != 0.5 {
		t.Fatalf("hardware share = %v", s.EventShare[CauseHardware])
	}
}

func TestAssignCauseConsistency(t *testing.T) {
	m := DefaultTicketModel()
	r := rng.New(17)
	for i := 0; i < 2000; i++ {
		c := m.AssignCause(false, r)
		if c == CauseFiberCut {
			t.Fatal("partial impairment classified as fiber cut")
		}
	}
	sawCut := false
	for i := 0; i < 2000; i++ {
		if m.AssignCause(true, r) == CauseFiberCut {
			sawCut = true
			break
		}
	}
	if !sawCut {
		t.Fatal("loss of light never classified as fiber cut")
	}
}

func BenchmarkDetectYear(b *testing.B) {
	r := rng.New(1)
	p := snr.Params{
		BaselinedB: 12, JitterStd: 1, JitterPhi: 0.9,
		DipsPerYear: 6, DipDepthMu: math.Log(7), DipDepthSigma: 0.5,
		DipDurationMuHours: math.Log(4), DipDurationSigma: 0.5,
	}
	series, err := snr.Generate(p, 35040, r, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Detect(series.Samples, 6.5)
	}
}
