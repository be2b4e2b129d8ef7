package modulation

import (
	"fmt"
	"math"
	"testing"
)

// shannonParams derives SNR thresholds from first principles instead
// of taking them as hardware constants: a coherent transceiver running
// at SymbolRateGBd on two polarizations with FEC of the given code
// rate needs a per-polarization spectral efficiency of
//
//	SE = capacity / (2 · SymbolRateGBd · CodeRate)
//
// bits/symbol, and an AWGN channel supports SE at SNR ≥ 2^SE − 1
// (Shannon), plus an implementation gap for real DSPs and FECs.
//
// This is the cross-check for DESIGN.md's calibration note: the
// paper's published anchors (6.5 dB → 100 G, 3.0 dB → 50 G) should be
// reproducible from plausible hardware parameters, and the unpublished
// rungs should land near our assumed ladder.
type shannonParams struct {
	// SymbolRateGBd is the baud rate (per polarization). Flex-rate
	// 100–200 G transceivers of the paper's era ran ≈ 32 GBd.
	SymbolRateGBd float64
	// CodeRate is the FEC code rate (net/gross), typically ≈ 0.8 for
	// 25% overhead SD-FEC.
	CodeRate float64
	// GapdB is the implementation gap to Shannon capacity.
	GapdB float64
}

// defaultShannonParams matches 2017-era coherent hardware.
func defaultShannonParams() shannonParams {
	return shannonParams{SymbolRateGBd: 32, CodeRate: 0.8, GapdB: 2.0}
}

// validate reports whether the parameters are usable.
func (p shannonParams) validate() error {
	switch {
	case p.SymbolRateGBd <= 0:
		return fmt.Errorf("modulation: non-positive symbol rate")
	case p.CodeRate <= 0 || p.CodeRate > 1:
		return fmt.Errorf("modulation: code rate %v outside (0,1]", p.CodeRate)
	case p.GapdB < 0:
		return fmt.Errorf("modulation: negative implementation gap")
	}
	return nil
}

// requiredSNRdB returns the SNR needed to carry the given capacity.
func (p shannonParams) requiredSNRdB(c Gbps) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	if c <= 0 {
		return 0, fmt.Errorf("modulation: non-positive capacity %v", c)
	}
	se := float64(c) / (2 * p.SymbolRateGBd * p.CodeRate)
	snrLin := math.Pow(2, se) - 1
	return SNRLinearToDB(snrLin) + p.GapdB, nil
}

// shannonLadder builds a ladder for the standard capacity set with
// thresholds derived from the parameters. Formats are assigned by the
// nearest standard constellation for the spectral efficiency.
func shannonLadder(p shannonParams) (*Ladder, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	caps := []Gbps{50, 100, 125, 150, 175, 200}
	formats := []Format{
		FormatBPSK, FormatQPSK, FormatHybridQPSK8QAM,
		Format8QAM, FormatHybrid8QAM16QAM, Format16QAM,
	}
	modes := make([]Mode, len(caps))
	for i, c := range caps {
		th, err := p.requiredSNRdB(c)
		if err != nil {
			return nil, err
		}
		modes[i] = Mode{Capacity: c, Format: formats[i], MinSNRdB: th}
	}
	return NewLadder(modes)
}

func TestShannonReproducesPublishedAnchor100G(t *testing.T) {
	// The paper publishes 6.5 dB for 100 Gbps. With 32 GBd dual-pol
	// and 0.8 code rate, 100 G needs ~1.95 bits/sym/pol: Shannon says
	// ~4.6 dB, so a ~2 dB gap lands at ~6.6 dB.
	p := defaultShannonParams()
	th, err := p.requiredSNRdB(100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(th-6.5) > 1.0 {
		t.Fatalf("derived 100G threshold = %v dB, want ≈ 6.5", th)
	}
}

func TestShannonAnchor50GWithinReason(t *testing.T) {
	p := defaultShannonParams()
	th, err := p.requiredSNRdB(50)
	if err != nil {
		t.Fatal(err)
	}
	// Published anchor is 3.0 dB; derivation should land within ~1.5 dB
	// (real BPSK/low-rate modes carry extra overheads).
	if math.Abs(th-3.0) > 1.5 {
		t.Fatalf("derived 50G threshold = %v dB, want ≈ 3.0", th)
	}
}

func TestShannonLadderOrdering(t *testing.T) {
	l, err := shannonLadder(defaultShannonParams())
	if err != nil {
		t.Fatal(err)
	}
	modes := l.Modes()
	if len(modes) != 6 {
		t.Fatalf("%d rungs", len(modes))
	}
	for i := 1; i < len(modes); i++ {
		if modes[i].MinSNRdB <= modes[i-1].MinSNRdB {
			t.Fatal("thresholds not increasing")
		}
	}
}

func TestShannonLadderNearAssumedLadder(t *testing.T) {
	// Cross-check DESIGN.md: the derived ladder should land within
	// ~2.5 dB of the assumed ladder on every rung.
	derived, err := shannonLadder(defaultShannonParams())
	if err != nil {
		t.Fatal(err)
	}
	assumed := Default()
	for _, m := range assumed.Modes() {
		d, ok := derived.ModeFor(m.Capacity)
		if !ok {
			t.Fatalf("derived ladder missing %v Gbps", m.Capacity)
		}
		if math.Abs(d.MinSNRdB-m.MinSNRdB) > 2.5 {
			t.Errorf("%v Gbps: derived %v dB vs assumed %v dB", m.Capacity, d.MinSNRdB, m.MinSNRdB)
		}
	}
}

func TestShannonValidation(t *testing.T) {
	bad := []shannonParams{
		{SymbolRateGBd: 0, CodeRate: 0.8, GapdB: 2},
		{SymbolRateGBd: 32, CodeRate: 0, GapdB: 2},
		{SymbolRateGBd: 32, CodeRate: 1.2, GapdB: 2},
		{SymbolRateGBd: 32, CodeRate: 0.8, GapdB: -1},
	}
	for i, p := range bad {
		if _, err := shannonLadder(p); err == nil {
			t.Errorf("case %d accepted", i)
		}
		if _, err := p.requiredSNRdB(100); err == nil {
			t.Errorf("case %d requiredSNRdB accepted", i)
		}
	}
	if _, err := defaultShannonParams().requiredSNRdB(0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestShannonMonotoneInCapacity(t *testing.T) {
	p := defaultShannonParams()
	prev := -100.0
	for c := Gbps(25); c <= 400; c += 25 {
		th, err := p.requiredSNRdB(c)
		if err != nil {
			t.Fatal(err)
		}
		if th <= prev {
			t.Fatalf("threshold not increasing at %v Gbps", c)
		}
		prev = th
	}
}

func TestShannonGapShiftsThresholds(t *testing.T) {
	a := defaultShannonParams()
	b := a
	b.GapdB = a.GapdB + 1
	ta, _ := a.requiredSNRdB(150)
	tb, _ := b.requiredSNRdB(150)
	if math.Abs(tb-ta-1) > 1e-9 {
		t.Fatalf("gap shift: %v -> %v", ta, tb)
	}
}
