package bvt

import (
	"math"
	"testing"
	"time"

	"repro/internal/modulation"
	"repro/internal/stats"
)

func newTestTransceiver(t *testing.T, hot bool) *Transceiver {
	t.Helper()
	tr, err := New(Config{
		InitialMode:  100,
		ChannelSNRdB: 18,
		HotCapable:   hot,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewStartsUp(t *testing.T) {
	tr := newTestTransceiver(t, false)
	if !tr.LinkUp() {
		t.Fatal("fresh transceiver is down")
	}
	m, ok := tr.Mode()
	if !ok || m.Capacity != 100 {
		t.Fatalf("mode = %+v, %v", m, ok)
	}
	if tr.Downtime() != 0 || tr.clock != 0 {
		t.Fatal("fresh transceiver has accrued time")
	}
}

func TestNewRejectsUnknownMode(t *testing.T) {
	if _, err := New(Config{InitialMode: 33, ChannelSNRdB: 18}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestReadStatusAndSNR(t *testing.T) {
	tr := newTestTransceiver(t, false)
	st, err := tr.ReadReg(RegStatus)
	if err != nil {
		t.Fatal(err)
	}
	if st&StatusLaserLit == 0 || st&StatusDSPReady == 0 || st&StatusRxLocked == 0 {
		t.Fatalf("status = %04x", st)
	}
	snr, err := tr.ReadReg(RegSNR)
	if err != nil {
		t.Fatal(err)
	}
	if snr != 180 {
		t.Fatalf("SNR reg = %d, want 180 (18.0 dB)", snr)
	}
}

func TestWriteReadOnlyRegisters(t *testing.T) {
	tr := newTestTransceiver(t, false)
	for _, reg := range []uint16{RegStatus, RegSNR, RegCapability} {
		if err := tr.WriteReg(reg, 1); err == nil {
			t.Fatalf("write to read-only reg 0x%04x accepted", reg)
		}
	}
	if err := tr.WriteReg(0x9999, 1); err == nil {
		t.Fatal("write to unknown register accepted")
	}
	if _, err := tr.ReadReg(0x9999); err == nil {
		t.Fatal("read of unknown register accepted")
	}
}

func TestFirmwareRejectsHotModeChangeWhenNotCapable(t *testing.T) {
	tr := newTestTransceiver(t, false)
	// Laser is on; a direct mode write must be rejected by the classic
	// firmware — the §3.1 constraint.
	if err := tr.WriteReg(RegMode, formatCode(modulation.Format8QAM)); err == nil {
		t.Fatal("hot mode write accepted by non-hot-capable firmware")
	}
}

func TestModeWriteRejectsUnknownFormat(t *testing.T) {
	tr := newTestTransceiver(t, false)
	if err := tr.WriteReg(RegMode, 200); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestPowerCycleChange(t *testing.T) {
	tr := newTestTransceiver(t, false)
	drv := NewDriver(tr, nil)
	rep, err := drv.ChangeModulation(150, MethodPowerCycle)
	if err != nil {
		t.Fatal(err)
	}
	if rep.To.Capacity != 150 {
		t.Fatalf("report modes: %+v", rep)
	}
	if !tr.LinkUp() {
		t.Fatal("link down after change")
	}
	m, _ := tr.Mode()
	if m.Capacity != 150 {
		t.Fatalf("mode after change = %v", m.Capacity)
	}
	// Downtime should be tens of seconds.
	if rep.Downtime < 10*time.Second || rep.Downtime > 10*time.Minute {
		t.Fatalf("power-cycle downtime = %v", rep.Downtime)
	}
}

func TestHotChange(t *testing.T) {
	tr := newTestTransceiver(t, true)
	drv := NewDriver(tr, nil)
	rep, err := drv.ChangeModulation(150, MethodHot)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Downtime > time.Second {
		t.Fatalf("hot downtime = %v, want ≈ 35 ms", rep.Downtime)
	}
	if rep.Downtime <= 0 {
		t.Fatal("hot change had zero downtime — it is brief, not free")
	}
	if !tr.LinkUp() {
		t.Fatal("link down after hot change")
	}
}

func TestChangeFailsWhenSNRTooLow(t *testing.T) {
	tr, err := New(Config{InitialMode: 100, ChannelSNRdB: 9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(tr, nil)
	// 200 Gbps needs 15.5 dB; channel has 9 — the link must not relock.
	if _, err := drv.ChangeModulation(200, MethodPowerCycle); err == nil {
		t.Fatal("change to infeasible mode reported success")
	}
	if tr.LinkUp() {
		t.Fatal("link up at infeasible modulation")
	}
}

func TestSetChannelSNRDropsLink(t *testing.T) {
	tr := newTestTransceiver(t, false)
	tr.SetChannelSNR(2.0) // below every threshold
	if tr.LinkUp() {
		t.Fatal("link survived SNR collapse")
	}
	tr.SetChannelSNR(18)
	if !tr.LinkUp() {
		t.Fatal("link did not recover with SNR")
	}
}

func TestDriverRejectsUnknownTargets(t *testing.T) {
	tr := newTestTransceiver(t, false)
	drv := NewDriver(tr, nil)
	if _, err := drv.ChangeModulation(33, MethodPowerCycle); err == nil {
		t.Fatal("unknown capacity accepted")
	}
	if _, err := drv.ChangeModulation(150, Method(9)); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestTestbedFigure6bShape(t *testing.T) {
	// The paper's experiment: 200 modulation changes; power-cycle mean
	// ≈ 68 s, hot mean ≈ 35 ms — three orders of magnitude apart.
	caps := []modulation.Gbps{100, 150, 200}
	cold, err := Testbed(Config{InitialMode: 100, ChannelSNRdB: 20, Seed: 11}, caps, 200, MethodPowerCycle)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := Testbed(Config{InitialMode: 100, ChannelSNRdB: 20, Seed: 11}, caps, 200, MethodHot)
	if err != nil {
		t.Fatal(err)
	}
	coldMean := stats.Mean(DowntimesSeconds(cold))
	hotMean := stats.Mean(DowntimesSeconds(hot))
	if coldMean < 40 || coldMean > 110 {
		t.Fatalf("power-cycle mean = %v s, want ≈ 68", coldMean)
	}
	if hotMean < 0.015 || hotMean > 0.08 {
		t.Fatalf("hot mean = %v s, want ≈ 0.035", hotMean)
	}
	if ratio := coldMean / hotMean; ratio < 500 {
		t.Fatalf("cold/hot ratio = %v, want orders of magnitude", ratio)
	}
	if len(cold) != 200 || len(hot) != 200 {
		t.Fatalf("report counts: %d, %d", len(cold), len(hot))
	}
}

func TestTestbedValidation(t *testing.T) {
	caps := []modulation.Gbps{100, 150}
	if _, err := Testbed(Config{InitialMode: 100, ChannelSNRdB: 20}, caps[:1], 5, MethodHot); err == nil {
		t.Fatal("single capacity accepted")
	}
	if _, err := Testbed(Config{InitialMode: 100, ChannelSNRdB: 20}, caps, 0, MethodHot); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestTestbedDeterministic(t *testing.T) {
	caps := []modulation.Gbps{100, 150, 200}
	a, _ := Testbed(Config{InitialMode: 100, ChannelSNRdB: 20, Seed: 5}, caps, 20, MethodPowerCycle)
	b, _ := Testbed(Config{InitialMode: 100, ChannelSNRdB: 20, Seed: 5}, caps, 20, MethodPowerCycle)
	for i := range a {
		if a[i].Downtime != b[i].Downtime {
			t.Fatalf("change %d differs across runs", i)
		}
	}
}

func TestDowntimeAccountingMatchesReports(t *testing.T) {
	tr := newTestTransceiver(t, false)
	drv := NewDriver(tr, nil)
	var total time.Duration
	for _, target := range []modulation.Gbps{150, 200, 100, 125} {
		rep, err := drv.ChangeModulation(target, MethodPowerCycle)
		if err != nil {
			t.Fatal(err)
		}
		total += rep.Downtime
	}
	if tr.Downtime() != total {
		t.Fatalf("device downtime %v != sum of reports %v", tr.Downtime(), total)
	}
	if tr.clock < tr.Downtime() {
		t.Fatal("clock below downtime")
	}
}

func TestMethodStrings(t *testing.T) {
	if MethodPowerCycle.String() != "power-cycle" || MethodHot.String() != "hot" {
		t.Fatal("method strings wrong")
	}
	if Method(5).String() == "" {
		t.Fatal("unknown method string empty")
	}
}

func TestDefaultLatencyMeans(t *testing.T) {
	// Verify muForMean: exp(mu + sigma²/2) == mean.
	m := DefaultLatencyModel()
	if got := math.Exp(m.LaserEnableMu + m.LaserEnableSigma*m.LaserEnableSigma/2); math.Abs(got-62) > 0.1 {
		t.Fatalf("laser enable mean = %v", got)
	}
	if got := math.Exp(m.HotReprogramMu + m.HotReprogramSigma*m.HotReprogramSigma/2); math.Abs(got-0.035) > 0.001 {
		t.Fatalf("hot mean = %v", got)
	}
}

func BenchmarkPowerCycleChange(b *testing.B) {
	tr, err := New(Config{InitialMode: 100, ChannelSNRdB: 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	drv := NewDriver(tr, nil)
	targets := []modulation.Gbps{150, 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := drv.ChangeModulation(targets[i%2], MethodPowerCycle); err != nil {
			b.Fatal(err)
		}
	}
}
