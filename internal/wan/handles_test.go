package wan

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/modulation"
	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/obs/flight"
	"repro/internal/obs/hist"
)

// allPlanesRun sets one policy up at round zero with every plane the
// round writes to attached: registry + trace, registry history, flight
// recorder, and the default alert rules. For
// a count that depends on nothing but the write path, the history rings
// are 4 deep (full after the warm-up rounds, so no ring is still
// growing) and the rules evaluate but cannot fire.
func allPlanesRun(t *testing.T, net *Network, policy Policy, rounds int) *policyRun {
	t.Helper()
	o := obs.New()
	st := hist.New(hist.Options{Retain: 4})
	o.Metrics.SetHistory(st.Root().Bind(o.Clock))
	rec := flight.New()
	rules := alert.DefaultWANRules()
	for i := range rules {
		rules[i].Threshold = math.Inf(1)
	}
	sim, err := NewSimulation(SimConfig{
		Net: net, Rounds: rounds, Seed: 99, DemandFraction: 0.5, MaxDemands: 64,
		Obs: o, Flight: rec, Alerts: rules,
	})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := sim.newPolicyRun(policy, o)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestObservedRoundAllocsDoNotGrowWithLinks is the tentpole's wan-side
// pin: with every plane on, a steady-state round of a static policy (no
// capacity orders, so the trace adds a fixed number of events) costs the
// same number of allocations on 28 links as on 190. At the parent it
// was 1397 against 7877: four registrations, two label slices and two
// rendered keys per link.
func TestObservedRoundAllocsDoNotGrowWithLinks(t *testing.T) {
	c64, err := Continental(64, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	perRound := func(net *Network) float64 {
		const warm, runs = 4, 16
		pr := allPlanesRun(t, net, PolicyStatic100, warm+runs+1)
		r := 0
		step := func() {
			if err := pr.round(r); err != nil {
				t.Fatal(err)
			}
			r++
		}
		for r < warm {
			step()
		}
		return testing.AllocsPerRun(runs, step)
	}
	small, large := perRound(Abilene(2)), perRound(c64)
	t.Logf("allocs/round: abilene (%d links) %.0f, continental:64 (%d links) %.0f",
		Abilene(2).G.NumEdges(), small, c64.G.NumEdges(), large)
	if large > small+4 {
		t.Fatalf("allocs/round grow with link count: %.0f on Abilene, %.0f on continental:64", small, large)
	}
}

// TestZeroRoundRunPublishesNothing: a policy run that Pace stops before
// round 0 registers no series in the registry or the history store —
// handles are resolved by the first write, never by a constructor. (The
// parent passes too: this pins what eager resolution would break.)
func TestZeroRoundRunPublishesNothing(t *testing.T) {
	cfg, st := histSimConfig(t, 1)
	cfg.Flight = flight.New()
	cfg.Alerts = alert.DefaultWANRules()
	cfg.Pace = func(Policy, int) bool { return false }
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunPolicies([]Policy{PolicyStatic100, PolicyStaticMax, PolicyDynamic})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if len(r.Rounds) != 0 {
			t.Fatalf("%v ran %d rounds under a Pace that always refuses", r.Policy, len(r.Rounds))
		}
	}
	// All a run publishes before its first round is the fan-out layer's
	// own task counters (SNR generation, the policy pool).
	for _, s := range cfg.Obs.Metrics.Snapshot() {
		if !strings.HasPrefix(s.Name, "rwc_par_") {
			t.Errorf("zero-round run published %s%v", s.Name, s.Labels)
		}
	}
	if got := loggedFrames(t, cfg.Flight); len(got) != 0 {
		t.Errorf("zero-round run recorded flight frames: %+v", got)
	}
	for _, s := range st.Archive().Series {
		if !strings.HasPrefix(s.Name, "rwc_par_") {
			t.Errorf("zero-round run archived history for %s", s.Key())
		}
	}
}

// refStaticMaxCapacity is staticMaxCapacity as it was written before
// slices.Sort: a hand-rolled insertion sort of the whole-horizon row.
func refStaticMaxCapacity(ladder *modulation.Ladder, row []float64) modulation.Gbps {
	sorted := append([]float64(nil), row...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	m, ok := ladder.FeasibleCapacity(sorted[len(sorted)/20])
	if !ok {
		return ladder.Min().Capacity
	}
	return m.Capacity
}

// oneRowSim is a Simulation whose only state is one wavelength's SNR
// row — all staticMaxCapacity reads.
func oneRowSim(row []float64) *Simulation {
	return &Simulation{
		ladder: modulation.Default(),
		snrAt:  [][][]float64{{row}},
	}
}

func TestStaticMaxCapacityMatchesInsertionSortReference(t *testing.T) {
	ladder := modulation.Default()
	src := rngNew(4242)
	for trial := 0; trial < 400; trial++ {
		n := 1 + src.Intn(64) // mostly < 20: the percentile index is 0
		if trial%8 == 0 {
			n = 200 + src.Intn(800)
		}
		row := make([]float64, n)
		for i := range row {
			// Half-dB steps over the ladder's range and beyond it on both
			// sides: ties are common and some rows have no feasible rung.
			row[i] = float64(src.Intn(60))/2 - 4
		}
		if got, want := oneRowSim(row).staticMaxCapacity(0, 0), refStaticMaxCapacity(ladder, row); got != want {
			t.Fatalf("trial %d (n=%d): staticMaxCapacity = %v, insertion-sort reference = %v\nrow %v", trial, n, got, want, row)
		}
	}
}

// TestStaticMaxCapacityIsNotQuadratic: a descending row — every element
// of an insertion sort travels the whole prefix — must cost about what
// an ascending one does. The row is a 16384-round horizon; the parent's
// insertion sort spent ~100 ms on it per wavelength.
func TestStaticMaxCapacityIsNotQuadratic(t *testing.T) {
	const n = 16384
	asc, desc := make([]float64, n), make([]float64, n)
	for i := range asc {
		asc[i] = 5 + 20*float64(i)/n
		desc[n-1-i] = asc[i]
	}
	fastest := func(row []float64) (time.Duration, modulation.Gbps) {
		sim := oneRowSim(row)
		best, got := time.Duration(math.MaxInt64), modulation.Gbps(0)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			got = sim.staticMaxCapacity(0, 0)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best, got
	}
	base, capAsc := fastest(asc)
	rev, capDesc := fastest(desc)
	if capAsc != capDesc {
		t.Fatalf("same samples, different capacity: ascending %v, descending %v", capAsc, capDesc)
	}
	if base < 100*time.Microsecond {
		base = 100 * time.Microsecond
	}
	t.Logf("n=%d ascending %v descending %v", n, base, rev)
	if rev > 64*base {
		t.Fatalf("descending row took %v, more than 64x the ascending one (%v): quadratic", rev, base)
	}
}

// TestHandlePathMatchesReregisteringRound replays a run's RoundMetrics
// through the register-per-write recordRound into a second bundle and
// requires the same series values and the same history, with two
// policies sharing one bundle.
func TestHandlePathMatchesReregisteringRound(t *testing.T) {
	cfg, st := histSimConfig(t, 1)
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refObs := obs.New()
	refStore := hist.New(hist.Options{Tool: "wan-test", Seed: cfg.Seed})
	refObs.Metrics.SetHistory(refStore.Root().Bind(refObs.Clock))

	for _, policy := range []Policy{PolicyStatic100, PolicyDynamic} {
		pr, err := sim.newPolicyRun(policy, cfg.Obs)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < cfg.Rounds; r++ {
			if err := pr.round(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The reference replays recordRound only — the ten series whose values
	// the Result carries; solver and augmenter stats are gone by now.
	for _, policy := range []Policy{PolicyStatic100, PolicyDynamic} {
		res, err := sim.runPolicy(policy, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range res.Rounds {
			refObs.SetSimTime(time.Duration(m.Round) * RoundInterval)
			refRecordRound(sim, refObs, policy, m)
		}
	}
	families := []string{"wan_offered_gbps", "wan_shipped_gbps", "wan_capacity_gbps",
		"wan_links_dark", "wan_round_changes", "wan_snr_min_db", "wan_flap_rate",
		"wan_rounds_total", "wan_changes_total", "wan_disrupted_gbps_seconds_total"}
	if got, want := cfg.Obs.Metrics.SnapshotFamilies(families...), refObs.Metrics.SnapshotFamilies(families...); !reflect.DeepEqual(got, want) {
		t.Fatalf("handle path and re-registering reference disagree:\n got %+v\nwant %+v", got, want)
	}
	roundHistory := func(st *hist.Store) []byte {
		var buf bytes.Buffer
		a := st.Archive().Filter(func(s hist.Series) bool { return slices.Contains(families, s.Name) })
		if err := a.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(roundHistory(st), roundHistory(refStore)) {
		t.Fatal("handle path and re-registering reference archive different round history")
	}
}

// refRecordRound is recordRound as it was before policySeries: every
// series re-registered on every write.
func refRecordRound(s *Simulation, o *obs.Obs, policy Policy, m RoundMetrics) {
	pl := obs.L("policy", policy.String())
	o.Gauge("wan_offered_gbps", "Total demand volume in the current round.", pl).Set(m.OfferedGbps)
	o.Gauge("wan_shipped_gbps", "TE throughput in the current round.", pl).Set(m.ShippedGbps)
	o.Gauge("wan_capacity_gbps", "Total IP capacity in the current round.", pl).Set(m.CapacityGbps)
	o.Gauge("wan_links_dark", "IP adjacencies with zero capacity in the current round.", pl).Set(float64(m.LinksDark))
	o.Gauge("wan_round_changes", "Wavelength capacity changes in the current round.", pl).Set(float64(m.Changes))
	o.Gauge("wan_snr_min_db", "Minimum SNR across every wavelength in the current round (dB); the snr_dip alert watches its dip from the running maximum.", pl).Set(m.MinSNRdB)
	o.Gauge("wan_flap_rate", "Wavelength capacity changes per IP link in the current round.", pl).Set(float64(m.Changes) / float64(s.cfg.Net.G.NumEdges()))
	o.Counter("wan_rounds_total", "Simulation rounds executed.", pl).Inc()
	o.Counter("wan_changes_total", "Wavelength capacity changes across the run.", pl).Add(float64(m.Changes))
	o.Counter("wan_disrupted_gbps_seconds_total", "Estimated traffic × downtime disrupted by reconfigurations.", pl).Add(m.DisruptedGbpsSec)
}
