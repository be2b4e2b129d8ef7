package snr

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/stats"
)

func quietParams() Params {
	return Params{
		BaselinedB: 15,
		JitterStd:  0.3,
		JitterPhi:  0.95,
	}
}

func TestGenerateLength(t *testing.T) {
	s, err := Generate(quietParams(), 1000, rng.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Samples) != 1000 {
		t.Fatalf("len = %d", len(s.Samples))
	}
}

func TestGenerateRejectsBadInput(t *testing.T) {
	if _, err := Generate(quietParams(), 0, rng.New(1), nil); err == nil {
		t.Fatal("n=0 should error")
	}
	bad := quietParams()
	bad.JitterPhi = 1.0
	if _, err := Generate(bad, 10, rng.New(1), nil); err == nil {
		t.Fatal("phi=1 should error")
	}
	bad = quietParams()
	bad.JitterStd = -1
	if _, err := Generate(bad, 10, rng.New(1), nil); err == nil {
		t.Fatal("negative jitter should error")
	}
	bad = quietParams()
	bad.LossOfLightProb = 1.5
	if _, err := Generate(bad, 10, rng.New(1), nil); err == nil {
		t.Fatal("bad probability should error")
	}
	bad = quietParams()
	bad.DipsPerYear = -2
	if _, err := Generate(bad, 10, rng.New(1), nil); err == nil {
		t.Fatal("negative dip rate should error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(quietParams(), 5000, rng.New(42), nil)
	b, _ := Generate(quietParams(), 5000, rng.New(42), nil)
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("series diverged at %d", i)
		}
	}
}

func TestQuietSeriesStaysNearBaseline(t *testing.T) {
	p := quietParams()
	s, _ := Generate(p, samplesPerYear, rng.New(7), nil)
	sum, err := stats.Summarize(s.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.Mean-p.BaselinedB) > 0.3 {
		t.Fatalf("mean = %v, want ≈ %v", sum.Mean, p.BaselinedB)
	}
	// Stationary AR(1) std should be close to JitterStd.
	if sum.Std < 0.15 || sum.Std > 0.5 {
		t.Fatalf("std = %v, want ≈ %v", sum.Std, p.JitterStd)
	}
	if len(s.Dips) != 0 {
		t.Fatalf("quiet series has %d dips", len(s.Dips))
	}
}

func TestQuietSeriesNarrowHDR(t *testing.T) {
	// The paper's key stability observation: without impairments the
	// 95% HDR is well under 2 dB.
	s, _ := Generate(quietParams(), samplesPerYear, rng.New(11), nil)
	h, err := stats.HDR(s.Samples, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if h.Width() >= 2 {
		t.Fatalf("HDR width = %v, want < 2 dB", h.Width())
	}
}

func TestPartialDipDepressesSNR(t *testing.T) {
	p := quietParams()
	dip := Dip{Kind: DipPartial, Start: 100, End: 200, DepthdB: 6}
	s, _ := Generate(p, 1000, rng.New(3), []Dip{dip})
	inDip := stats.Mean(s.Samples[120:180])
	outDip := stats.Mean(s.Samples[300:900])
	if outDip-inDip < 5 || outDip-inDip > 7 {
		t.Fatalf("dip depth = %v, want ≈ 6", outDip-inDip)
	}
}

func TestLossOfLightFloorsSNR(t *testing.T) {
	dip := Dip{Kind: DipLossOfLight, Start: 50, End: 80}
	s, _ := Generate(quietParams(), 200, rng.New(5), []Dip{dip})
	for i := 50; i < 80; i++ {
		if s.Samples[i] != LossOfLightdB {
			t.Fatalf("sample %d = %v during loss of light", i, s.Samples[i])
		}
	}
	if s.Samples[49] == LossOfLightdB || s.Samples[80] == LossOfLightdB {
		t.Fatal("loss of light leaked outside the dip")
	}
}

func TestDeepPartialDipClampsAtFloor(t *testing.T) {
	dip := Dip{Kind: DipPartial, Start: 10, End: 20, DepthdB: 100}
	s, _ := Generate(quietParams(), 100, rng.New(5), []Dip{dip})
	for i := 10; i < 20; i++ {
		if s.Samples[i] != LossOfLightdB {
			t.Fatalf("sample %d = %v, want floored", i, s.Samples[i])
		}
	}
}

func TestNormalizeDipsClipsAndMerges(t *testing.T) {
	dips := []Dip{
		{Kind: DipPartial, Start: -5, End: 10, DepthdB: 3},
		{Kind: DipPartial, Start: 5, End: 20, DepthdB: 7},  // overlaps → merge
		{Kind: DipPartial, Start: 50, End: 45, DepthdB: 1}, // empty → drop
		{Kind: DipPartial, Start: 90, End: 200, DepthdB: 2},
	}
	out := normalizeDips(dips, 100)
	if len(out) != 2 {
		t.Fatalf("got %d dips: %+v", len(out), out)
	}
	if out[0].Start != 0 || out[0].End != 20 || out[0].DepthdB != 7 {
		t.Fatalf("merged dip wrong: %+v", out[0])
	}
	if out[1].Start != 90 || out[1].End != 100 {
		t.Fatalf("clip wrong: %+v", out[1])
	}
}

func TestNormalizeDipsLossOfLightDominates(t *testing.T) {
	dips := []Dip{
		{Kind: DipPartial, Start: 0, End: 10, DepthdB: 3},
		{Kind: DipLossOfLight, Start: 5, End: 8},
	}
	out := normalizeDips(dips, 100)
	if len(out) != 1 || out[0].Kind != DipLossOfLight {
		t.Fatalf("merge did not keep loss-of-light: %+v", out)
	}
}

func TestNormalizeDipsSortsUnordered(t *testing.T) {
	dips := []Dip{
		{Kind: DipPartial, Start: 50, End: 60, DepthdB: 1},
		{Kind: DipPartial, Start: 10, End: 20, DepthdB: 1},
	}
	out := normalizeDips(dips, 100)
	if len(out) != 2 || out[0].Start != 10 {
		t.Fatalf("not sorted: %+v", out)
	}
}

func TestDipsAreRecordedSorted(t *testing.T) {
	p := quietParams()
	p.DipsPerYear = 20
	p.DipDepthMu = math.Log(5)
	p.DipDurationMuHours = math.Log(3)
	s, _ := Generate(p, samplesPerYear, rng.New(13), nil)
	if len(s.Dips) == 0 {
		t.Fatal("expected dips at 20/year")
	}
	for i := 1; i < len(s.Dips); i++ {
		if s.Dips[i].Start < s.Dips[i-1].End {
			t.Fatalf("dips overlap or unsorted: %+v", s.Dips)
		}
	}
}

func TestSamplesNeverBelowFloor(t *testing.T) {
	p := quietParams()
	p.DipsPerYear = 30
	p.LossOfLightProb = 0.5
	p.DipDepthMu = math.Log(10)
	p.DipDepthSigma = 1
	p.DipDurationMuHours = math.Log(5)
	p.DipDurationSigma = 1
	s, _ := Generate(p, samplesPerYear, rng.New(17), nil)
	for i, v := range s.Samples {
		if v < LossOfLightdB {
			t.Fatalf("sample %d = %v below floor", i, v)
		}
	}
}

func TestSamplesFor(t *testing.T) {
	if n := SamplesFor(24 * time.Hour); n != 96 {
		t.Fatalf("SamplesFor(24h) = %d, want 96", n)
	}
	if n := SamplesFor(time.Hour); n != 4 {
		t.Fatalf("SamplesFor(1h) = %d", n)
	}
}

// TestDipDuration: a dip's sample indices count SampleInterval steps,
// so SamplesFor converts its wall-clock length to End-Start.
func TestDipDuration(t *testing.T) {
	d := Dip{Start: 0, End: 8}
	if n := SamplesFor(2 * time.Hour); n != d.End-d.Start {
		t.Fatalf("SamplesFor(2h) = %d, want %d", n, d.End-d.Start)
	}
}

func TestDipKindString(t *testing.T) {
	if DipPartial.String() != "partial" || DipLossOfLight.String() != "loss-of-light" {
		t.Fatal("kind strings wrong")
	}
	if DipKind(9).String() == "" {
		t.Fatal("unknown kind string empty")
	}
}

func TestSeasonalDriftBounded(t *testing.T) {
	p := quietParams()
	p.JitterStd = 0.01
	p.SeasonalAmpdB = 1.5
	s, _ := Generate(p, samplesPerYear, rng.New(19), nil)
	lo, hi := slices.Min(s.Samples), slices.Max(s.Samples)
	if hi-lo < 2.5 || hi-lo > 3.3 {
		t.Fatalf("seasonal swing = %v, want ≈ 3 dB", hi-lo)
	}
}
