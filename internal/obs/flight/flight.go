// Package flight implements a deterministic flight recorder for the
// capacity-decision pipeline: one compact record per simulation round
// capturing, for every link, the full causal chain of Theorem 1 (§4) —
// SNR sample → modulation tier → fake-edge offer ⟨capacity, penalty⟩
// (§3.2) → solver selection → decision gate → applied capacity — plus
// aggregate flow and a canonical FNV-64 state hash.
//
// The recorder streams to a binary log (see log.go; the framing is
// internal/obs/container's) with a JSONL export mode; cmd/rwc-replay replays, explains, and
// bisects the logs. Per-link labeled metric series
// (wan_link_snr_db{link=...}, wan_link_capacity_gbps{link=...}) are
// emitted into a recorder-owned registry gated behind a cardinality
// budget, kept apart from the run's registry like the SLI layer's, and reach the
// metrics-history store only through that registry's history sink (see
// hist.go): nothing the recorder does ever touches the run's own
// metrics/trace/manifest, so runs with and without a recorder produce
// byte-identical artifacts.
//
// Everything is keyed on simulation state only — no wall clock, no
// map-iteration ordering — so same-seed runs produce byte-identical
// flight logs regardless of -workers.
package flight

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultMaxLinks is the labeled-series cardinality budget per run:
// only the first DefaultMaxLinks links (link-table order) get
// wan_link_snr_db/wan_link_capacity_gbps series; the rest are counted
// into obs_flight_links_dropped_total. It is enough for every backbone
// topology in this repo while keeping a hostile or degenerate topology
// from exploding the registry.
const DefaultMaxLinks = 256

// Link is one entry of a run's link table: a directed physical edge.
type Link struct {
	// Edge is the edge ID in the run's topology.
	Edge int `json:"edge"`
	// Name is the human-readable link name ("SEA->DEN").
	Name string `json:"name"`
	// Fiber is the fiber index the edge rides (both directions of an
	// adjacency share a fiber and therefore an SNR process).
	Fiber int `json:"fiber"`
}

// LadderRung is one modulation rung, recorded per run so explain can
// show the table lookup (threshold → tier) without the ladder object.
type LadderRung struct {
	Gbps     float64 `json:"gbps"`
	MinSNRdB float64 `json:"min_snr_db"`
	Format   string  `json:"format,omitempty"`
}

// LinkRecord is the per-link slice of one round record: the values of
// the causal chain that cannot be derived from the others and the run
// table. The modulation tier is the run's ladder looked up at SNRdB,
// a fake edge was offered iff FakeCapGbps > 0, and the residual is
// FakeCapGbps − FakeFlowGbps.
type LinkRecord struct {
	// LinkIndex is the record's position in its frame, which is its
	// index in the run's link table. It is not on the wire: ReadLog
	// fills it in.
	LinkIndex int
	// SNRdB is the binding (minimum) SNR across the fiber's wavelengths
	// this round — the sample that constrains the link.
	SNRdB float64
	// FeasibleGbps is the summed feasible capacity across the link's
	// wavelengths — the physical ceiling this round.
	FeasibleGbps float64
	// CapacityGbps is the configured capacity after this round's
	// decisions were applied.
	CapacityGbps float64
	// FakeCapGbps and FakePenalty are the offered ⟨capacity, penalty⟩
	// pair (§3.2): upgrade headroom and per-unit activation cost; zero
	// when no fake edge was offered.
	FakeCapGbps, FakePenalty float64
	// FlowGbps is the total flow the solver put on the link (real +
	// fake components, translated to the physical edge).
	FlowGbps float64
	// FakeFlowGbps is the portion routed over the fake edge — positive
	// means the solver selected the upgrade.
	FakeFlowGbps float64
	// Verdict is the decision gate's verdict, an index into the run's
	// Verdicts names (0, the gate's "steady", for the static policies).
	Verdict uint8
}

// RoundRecord is one frame of the flight log: everything the decision
// pipeline saw and did in one round of one policy run.
type RoundRecord struct {
	// Run distinguishes concurrent simulations sharing a recorder
	// (rwc-experiments records one run per figure); "" for single-run
	// tools.
	Run string
	// Policy is the capacity policy the frame belongs to.
	Policy string
	// Round is the 0-based round index.
	Round int
	// OfferedGbps, ShippedGbps, CapacityGbps are the round aggregates
	// (demand offered, flow shipped, total configured capacity).
	OfferedGbps, ShippedGbps, CapacityGbps float64
	// Changes counts capacity changes applied this round.
	Changes int
	// Hash is the canonical FNV-64a digest of this frame (aggregates +
	// every link record); filled by Record, verified by replay.
	Hash uint64
	// Links holds exactly one record per link-table entry, in table
	// order.
	Links []LinkRecord
}

// hashRecord computes the canonical digest of a frame. Everything that
// describes simulation state is folded in; the stored Hash itself is
// not.
func hashRecord(rec *RoundRecord) uint64 {
	h := obs.NewHash64()
	h.WriteString(rec.Run)
	h.WriteString(rec.Policy)
	h.WriteInt(rec.Round)
	h.WriteFloat64(rec.OfferedGbps)
	h.WriteFloat64(rec.ShippedGbps)
	h.WriteFloat64(rec.CapacityGbps)
	h.WriteInt(rec.Changes)
	h.WriteInt(len(rec.Links))
	for i := range rec.Links {
		l := &rec.Links[i]
		h.WriteFloat64(l.SNRdB)
		h.WriteFloat64(l.FeasibleGbps)
		h.WriteFloat64(l.CapacityGbps)
		h.WriteFloat64(l.FakeCapGbps)
		h.WriteFloat64(l.FakePenalty)
		h.WriteFloat64(l.FlowGbps)
		h.WriteFloat64(l.FakeFlowGbps)
		h.WriteUint64(uint64(l.Verdict))
	}
	return h.Sum64()
}

// The per-link gauge families, the only ones the recorder admits into
// history.
const (
	snrFamily      = "wan_link_snr_db"
	capacityFamily = "wan_link_capacity_gbps"
)

// runState is the per-run bookkeeping behind Bind, plus the handles of
// the run's labeled series in the one registry its frames are written
// to — the recorder's live one, or the private one of a rebuild, which
// therefore works on runState copies.
type runState struct {
	links    []Link
	ladder   []LadderRung
	verdicts []string
	admitted int // links[:admitted] get labeled series
	// origin and interval place the run's rounds on the history time
	// axis (see at).
	origin, interval time.Duration
	// gauges[policy][link] are resolved by the first frame of the policy
	// that mentions the link (DESIGN "Observability": registration is
	// the cold path).
	gauges map[string][]linkGauges
}

// linkGauges are one (run, policy, link)'s registry series; snr == nil
// means not resolved yet.
type linkGauges struct{ snr, capacity *obs.Gauge }

// at is round's simulation time: origin + round × interval, the stamp
// the simulation gave the round's own metrics.
func (st *runState) at(round int) time.Duration {
	return st.origin + time.Duration(round)*st.interval
}

// seriesLabels is the label set of one link's series in one frame's
// (run, policy).
func (st *runState) seriesLabels(rec *RoundRecord, link int) []obs.Label {
	labels := []obs.Label{
		obs.L("link", st.links[link].Name),
		obs.L("policy", rec.Policy),
	}
	if rec.Run != "" {
		labels = append(labels, obs.L("run", rec.Run))
	}
	return labels
}

// Recorder captures round records. All methods are safe for concurrent
// use (policy runs record concurrently under -workers) and nil-safe,
// so a disabled recorder costs one nil check.
//
// The recorder owns its metrics registry: live scrapes see labeled
// per-link series as frames arrive. The log carries the frames, sorted
// canonically, not the registry, so it is byte-identical however the
// scheduler interleaved Record calls.
type Recorder struct {
	mu     sync.Mutex
	runs   map[string]*runState
	frames []RoundRecord
	reg    *obs.Registry
	// framesTotal is obs_flight_frames_total in reg, registered by the
	// first frame: a recorder that captured nothing publishes no series.
	framesTotal *obs.Counter
	// clock stamps the history samples of reg's gauges (SetHistory, see
	// hist.go): Record sets it to the frame's time before emitSeries.
	clock *obs.SimClock
}

// New builds a Recorder.
func New() *Recorder {
	return &Recorder{
		runs:  make(map[string]*runState),
		reg:   obs.NewRegistry(),
		clock: obs.NewSimClock(),
	}
}

// Bind registers a run's link table, modulation ladder and verdict
// names (a LinkRecord's Verdict indexes them) before its first Record,
// with the time axis its rounds run on: round r happens at origin + r ×
// interval. The cardinality budget is decided here, in
// link-table order, so admission never depends on which policy records
// first. Re-binding the same run is a no-op if the table matches (the
// first time axis stands) and an error if it does not. The interval
// must be positive: a run without one has no time axis.
func (r *Recorder) Bind(run string, links []Link, ladder []LadderRung, verdicts []string, origin, interval time.Duration) error {
	if r == nil {
		return nil
	}
	if interval <= 0 {
		return fmt.Errorf("flight: run %q bound with round interval %v, want > 0", run, interval)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.runs[run]; ok {
		if len(prev.links) != len(links) {
			return fmt.Errorf("flight: run %q re-bound with %d links (was %d)", run, len(links), len(prev.links))
		}
		for i := range links {
			if prev.links[i] != links[i] {
				return fmt.Errorf("flight: run %q re-bound with different link %d (%q vs %q)",
					run, i, links[i].Name, prev.links[i].Name)
			}
		}
		return nil
	}
	st := &runState{
		links:    append([]Link(nil), links...),
		ladder:   append([]LadderRung(nil), ladder...),
		verdicts: append([]string(nil), verdicts...),
		admitted: min(len(links), DefaultMaxLinks),
		origin:   origin,
		interval: interval,
	}
	r.runs[run] = st
	if dropped := len(links) - st.admitted; dropped > 0 {
		r.reg.Counter("obs_flight_links_dropped_total", //nolint:seriesname // cold: once per bound run
			"Links denied labeled flight series by the cardinality budget (flight.DefaultMaxLinks).").Add(float64(dropped))
	}
	return nil
}

// Record captures one frame. The frame's Hash is (re)computed here so
// every stored frame carries the canonical digest. The run must have
// been bound and the frame must carry one record per link of its
// table; other frames are dropped (counted as dropped links would be —
// loudly, in the recorder's own registry).
func (r *Recorder) Record(rec RoundRecord) {
	if r == nil {
		return
	}
	rec.Hash = hashRecord(&rec)
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.runs[rec.Run]
	if st == nil {
		r.reg.Counter("obs_flight_unbound_frames_total", //nolint:seriesname // cold: a wiring bug, at most once per misrouted frame
			"Frames recorded for runs never bound to the recorder (dropped).").Inc()
		return
	}
	if len(rec.Links) != len(st.links) {
		r.reg.Counter("obs_flight_malformed_frames_total", //nolint:seriesname // cold: a wiring bug, at most once per misbuilt frame
			"Frames whose link records do not match their run's link table (dropped).").Inc()
		return
	}
	r.frames = append(r.frames, rec)
	if r.framesTotal == nil {
		r.framesTotal = r.reg.Counter("obs_flight_frames_total",
			"Round records captured by the flight recorder.")
	}
	r.framesTotal.Inc()
	r.clock.Set(st.at(rec.Round))
	emitSeries(r.reg, st, &rec)
}

// emitSeries writes the per-link labeled gauges for one frame through
// st's handles, honoring the run's admission decision; reg is the
// registry every frame of st goes to, and is only touched to register.
func emitSeries(reg *obs.Registry, st *runState, rec *RoundRecord) {
	row, ok := st.gauges[rec.Policy]
	if !ok {
		if st.gauges == nil {
			st.gauges = make(map[string][]linkGauges)
		}
		row = make([]linkGauges, len(st.links))
		st.gauges[rec.Policy] = row
	}
	for i := range rec.Links[:st.admitted] {
		l := &rec.Links[i]
		g := &row[i]
		if g.snr == nil {
			labels := st.seriesLabels(rec, i)
			g.snr = reg.Gauge(snrFamily,
				"Binding (minimum) SNR across the link's wavelengths this round.",
				labels...)
			g.capacity = reg.Gauge(capacityFamily,
				"Configured link capacity after this round's decisions.",
				labels...)
		}
		g.snr.Set(l.SNRdB)
		g.capacity.Set(l.CapacityGbps)
	}
}

// Registry exposes the recorder-owned labeled series for live serving
// (obs/serve appends it to /metrics). Never merge it into a run's own
// registry: run artifacts must not depend on whether a recorder was
// attached.
func (r *Recorder) Registry() *obs.Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// sortFrames orders frames canonically: run, then policy, then round.
func sortFrames(frames []RoundRecord) {
	sort.SliceStable(frames, func(i, j int) bool {
		a, b := &frames[i], &frames[j]
		if a.Run != b.Run {
			return a.Run < b.Run
		}
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		return a.Round < b.Round
	})
}

// Frames returns a canonically sorted copy of every captured frame.
func (r *Recorder) Frames() []RoundRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]RoundRecord(nil), r.frames...)
	r.mu.Unlock()
	sortFrames(out)
	return out
}

// Runs returns the bound run names, sorted, with their link tables.
func (r *Recorder) Runs() []Run {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.runs))
	for name := range r.runs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Run, 0, len(names))
	for _, name := range names {
		st := r.runs[name]
		out = append(out, Run{
			Name:     name,
			Links:    append([]Link(nil), st.links...),
			Ladder:   append([]LadderRung(nil), st.ladder...),
			Verdicts: append([]string(nil), st.verdicts...),
			Admitted: st.admitted,
			Origin:   st.origin,
			Interval: st.interval,
		})
	}
	return out
}
