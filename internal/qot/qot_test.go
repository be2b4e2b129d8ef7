package qot

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/modulation"
)

func TestSpans(t *testing.T) {
	p := Default()
	cases := []struct {
		km   float64
		want int
	}{
		{1, 1}, {80, 1}, {81, 2}, {800, 10}, {4000, 50}, {0, 0}, {-5, 0},
	}
	for _, tc := range cases {
		if got := p.Spans(tc.km); got != tc.want {
			t.Errorf("Spans(%v) = %d, want %d", tc.km, got, tc.want)
		}
	}
}

func TestSNRMonotoneDecreasingInLength(t *testing.T) {
	p := Default()
	prev := math.Inf(1)
	for km := 80.0; km <= 8000; km += 80 {
		snr, err := p.SNRdB(km)
		if err != nil {
			t.Fatal(err)
		}
		if snr > prev+1e-9 {
			t.Fatalf("SNR increased at %v km", km)
		}
		prev = snr
	}
}

func TestSNRBallparkMatchesPaperFleet(t *testing.T) {
	// The paper's links run 100 Gbps (6.5 dB threshold) with typical
	// SNR ~12-18 dB (Figure 1). Regional-to-long-haul spans should land
	// in that window.
	p := Default()
	short, err := p.SNRdB(400) // regional
	if err != nil {
		t.Fatal(err)
	}
	long, err := p.SNRdB(4000) // transcontinental
	if err != nil {
		t.Fatal(err)
	}
	if short < 15 || short > 30 {
		t.Fatalf("400 km SNR = %v dB, want high-teens-to-twenties", short)
	}
	if long < 8 || long > 16 {
		t.Fatalf("4000 km SNR = %v dB, want low-to-mid teens", long)
	}
	// Both must clear the 100 Gbps threshold: these are deployed links.
	if long < 6.5 {
		t.Fatalf("4000 km link below the 100G threshold: %v", long)
	}
}

func TestLongLinksLoseUpgradeHeadroom(t *testing.T) {
	// The physical story behind Figure 2b's distribution: short links
	// reach 200 Gbps, very long ones cannot.
	p := Default()
	ladder := modulation.Default()
	snrShort, _ := p.SNRdB(240)
	snrLong, _ := p.SNRdB(4800)
	mShort, ok := ladder.FeasibleCapacity(snrShort)
	if !ok {
		t.Fatal("short link infeasible")
	}
	mLong, ok := ladder.FeasibleCapacity(snrLong)
	if !ok {
		t.Fatal("long link infeasible")
	}
	if mShort.Capacity < 200 {
		t.Fatalf("240 km link feasible only at %v Gbps", mShort.Capacity)
	}
	if mLong.Capacity >= mShort.Capacity {
		t.Fatalf("long link (%v) not below short link (%v)", mLong.Capacity, mShort.Capacity)
	}
}

func TestOSNRPerSpanDoubling(t *testing.T) {
	// Doubling the span count costs exactly 3.01 dB.
	p := Default()
	a, _ := p.OSNRdB(800)  // 10 spans
	b, _ := p.OSNRdB(1600) // 20 spans
	if math.Abs((a-b)-10*math.Log10(2)) > 1e-9 {
		t.Fatalf("doubling spans cost %v dB", a-b)
	}
}

func TestValidation(t *testing.T) {
	bad := []Params{
		{},
		func() Params { p := Default(); p.SpanKm = 0; return p }(),
		func() Params { p := Default(); p.AttenuationdBPerKm = -1; return p }(),
		func() Params { p := Default(); p.NoiseFiguredB = -1; return p }(),
		func() Params { p := Default(); p.NLIPenaltydB = -1; return p }(),
		func() Params { p := Default(); p.SymbolRateGBd = 0; return p }(),
	}
	for i, p := range bad {
		if _, err := p.SNRdB(100); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := Default().SNRdB(0); err == nil {
		t.Error("zero length accepted")
	}
}

func TestLaunchPowerShiftsSNR(t *testing.T) {
	// Property: +1 dBm launch power = +1 dB SNR (in this linear-ASE
	// model; real systems hit the nonlinear optimum, which the NLI
	// penalty lumps).
	if err := quick.Check(func(raw uint8) bool {
		dBm := float64(raw%10) - 5
		a := Default()
		b := Default()
		b.LaunchPowerdBm = a.LaunchPowerdBm + dBm
		sa, err1 := a.SNRdB(800)
		sb, err2 := b.SNRdB(800)
		return err1 == nil && err2 == nil && math.Abs((sb-sa)-dBm) < 1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}
