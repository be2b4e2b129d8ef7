package modulation

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultLadderAnchors(t *testing.T) {
	l := Default()
	// The two published anchors from the paper.
	th100, err := l.ThresholdFor(100)
	if err != nil || th100 != 6.5 {
		t.Fatalf("100 Gbps threshold = %v (err %v), want 6.5 dB", th100, err)
	}
	th50, err := l.ThresholdFor(50)
	if err != nil || th50 != 3.0 {
		t.Fatalf("50 Gbps threshold = %v (err %v), want 3.0 dB", th50, err)
	}
}

func TestDefaultLadderShape(t *testing.T) {
	l := Default()
	caps := l.Capacities()
	want := []Gbps{50, 100, 125, 150, 175, 200}
	if len(caps) != len(want) {
		t.Fatalf("ladder has %d rungs", len(caps))
	}
	for i := range want {
		if caps[i] != want[i] {
			t.Fatalf("rung %d = %v, want %v", i, caps[i], want[i])
		}
	}
	if l.modes[len(l.modes)-1].Capacity != 200 || l.Min().Capacity != 50 {
		t.Fatal("min/max wrong")
	}
}

func TestLadderValidation(t *testing.T) {
	cases := []struct {
		name  string
		modes []Mode
	}{
		{"empty", nil},
		{"non-positive capacity", []Mode{{Capacity: 0, MinSNRdB: 1}}},
		{"duplicate capacity", []Mode{{Capacity: 100, MinSNRdB: 1}, {Capacity: 100, MinSNRdB: 2}}},
		{"non-increasing threshold", []Mode{{Capacity: 100, MinSNRdB: 5}, {Capacity: 200, MinSNRdB: 5}}},
		{"inverted threshold", []Mode{{Capacity: 100, MinSNRdB: 5}, {Capacity: 200, MinSNRdB: 4}}},
	}
	for _, tc := range cases {
		if _, err := NewLadder(tc.modes); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestNewLadderSortsInput(t *testing.T) {
	l, err := NewLadder([]Mode{
		{Capacity: 200, MinSNRdB: 15},
		{Capacity: 100, MinSNRdB: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.Min().Capacity != 100 {
		t.Fatalf("min = %v", l.Min().Capacity)
	}
}

func TestFeasibleCapacity(t *testing.T) {
	l := Default()
	cases := []struct {
		snr  float64
		want Gbps
		ok   bool
	}{
		{2.9, 0, false},
		{3.0, 50, true},
		{6.4, 50, true},
		{6.5, 100, true},
		{8.5, 125, true},
		{10.5, 150, true},
		{12.9, 150, true},
		{13.0, 175, true},
		{15.5, 200, true},
		{25, 200, true},
	}
	for _, tc := range cases {
		m, ok := l.FeasibleCapacity(tc.snr)
		if ok != tc.ok {
			t.Errorf("snr=%v: ok=%v, want %v", tc.snr, ok, tc.ok)
			continue
		}
		if ok && m.Capacity != tc.want {
			t.Errorf("snr=%v: capacity=%v, want %v", tc.snr, m.Capacity, tc.want)
		}
	}
}

// Property: feasible capacity is monotone non-decreasing in SNR.
func TestFeasibleCapacityMonotone(t *testing.T) {
	l := Default()
	if err := quick.Check(func(a, b float64) bool {
		a = math.Mod(math.Abs(a), 30)
		b = math.Mod(math.Abs(b), 30)
		if a > b {
			a, b = b, a
		}
		ma, okA := l.FeasibleCapacity(a)
		mb, okB := l.FeasibleCapacity(b)
		if okA && !okB {
			return false
		}
		if okA && okB && mb.Capacity < ma.Capacity {
			return false
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdForUnknown(t *testing.T) {
	if _, err := Default().ThresholdFor(333); err == nil {
		t.Fatal("expected error for unknown capacity")
	}
}

func TestModesReturnsCopy(t *testing.T) {
	l := Default()
	m := l.Modes()
	m[0].Capacity = 999
	if l.Min().Capacity == 999 {
		t.Fatal("Modes leaked internal state")
	}
}

func TestFormatStrings(t *testing.T) {
	for _, f := range []Format{FormatNone, FormatBPSK, FormatQPSK, Format8QAM, Format16QAM, FormatHybridQPSK8QAM, FormatHybrid8QAM16QAM} {
		if f.String() == "" {
			t.Errorf("empty string for format %d", int(f))
		}
	}
	if Format(99).String() != "Format(99)" {
		t.Error("unknown format string")
	}
}

func TestLadderFormatProgression(t *testing.T) {
	// Bits per symbol must increase with capacity across the ladder;
	// formats are declared in bits-per-symbol order.
	modes := Default().Modes()
	for i := 1; i < len(modes); i++ {
		if modes[i].Format <= modes[i-1].Format {
			t.Fatalf("bits/symbol not increasing at %v Gbps", modes[i].Capacity)
		}
	}
}

func TestSNRConversionRoundTrip(t *testing.T) {
	if err := quick.Check(func(dbRaw float64) bool {
		db := math.Mod(math.Abs(dbRaw), 40)
		back := SNRLinearToDB(SNRdBToLinear(db))
		return math.Abs(back-db) < 1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
	if SNRdBToLinear(10) != 10 {
		t.Fatal("10 dB should be 10x")
	}
	if math.Abs(SNRdBToLinear(3)-1.995) > 0.01 {
		t.Fatal("3 dB should be ~2x")
	}
}
