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
// budget, mirroring obs/serve's server-owned registry: nothing the
// recorder does ever touches the run's own metrics/trace/manifest, so
// runs with and without a recorder produce byte-identical artifacts.
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
	"repro/internal/obs/hist"
)

// DefaultMaxLinks is the labeled-series cardinality budget when
// Options.MaxLinks is 0: enough for every backbone topology in this
// repo while keeping a hostile or degenerate topology from exploding
// the registry.
const DefaultMaxLinks = 256

// DefaultRing is the ring-buffer depth served on /flightz when
// Options.Ring is 0.
const DefaultRing = 64

// Verdict classifies the decision-gate outcome for one link in one
// round of the wan simulator's loop.
type Verdict uint8

const (
	// VerdictSteady: no headroom offered and no change.
	VerdictSteady Verdict = iota
	// VerdictDark: the link carried zero capacity this round.
	VerdictDark
	// VerdictForcedDowngrade: SNR forced a flap down (§2.2).
	VerdictForcedDowngrade
	// VerdictUpgrade: the solver selected the fake edge and the upgrade
	// was applied (Theorem 1's implicit decision, made explicit).
	VerdictUpgrade
	// VerdictHeadroomIdle: a fake edge was offered but the solver
	// routed no flow over it — headroom not worth the penalty.
	VerdictHeadroomIdle

	verdictCount // number of defined verdicts (decode bound)
)

// String names the verdict for explain output and JSONL export.
func (v Verdict) String() string {
	switch v {
	case VerdictSteady:
		return "steady"
	case VerdictDark:
		return "dark"
	case VerdictForcedDowngrade:
		return "forced-downgrade"
	case VerdictUpgrade:
		return "upgrade"
	case VerdictHeadroomIdle:
		return "headroom-idle"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

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

// LinkRecord is the per-link slice of one round record — the six-step
// causal chain in data form.
type LinkRecord struct {
	// LinkIndex indexes the run's link table.
	LinkIndex int
	// SNRdB is the binding (minimum) SNR across the fiber's wavelengths
	// this round — the sample that constrains the link.
	SNRdB float64
	// TierGbps is the modulation-table lookup for SNRdB: the feasible
	// per-wavelength capacity of the binding wavelength (0 = below the
	// lowest rung).
	TierGbps float64
	// FeasibleGbps is the summed feasible capacity across the link's
	// wavelengths — the physical ceiling this round.
	FeasibleGbps float64
	// CapacityGbps is the configured capacity after this round's
	// decisions were applied.
	CapacityGbps float64
	// Fake reports whether a fake edge was offered to the solver.
	Fake bool
	// FakeCapGbps and FakePenalty are the offered ⟨capacity, penalty⟩
	// pair (§3.2): upgrade headroom and per-unit activation cost.
	FakeCapGbps, FakePenalty float64
	// FlowGbps is the total flow the solver put on the link (real +
	// fake components, translated to the physical edge).
	FlowGbps float64
	// FakeFlowGbps is the portion routed over the fake edge — positive
	// means the solver selected the upgrade.
	FakeFlowGbps float64
	// ResidualGbps is the fake capacity the solver left unused.
	ResidualGbps float64
	// Verdict is the decision-gate outcome.
	Verdict Verdict
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
	// Links holds one record per link-table entry, in table order.
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
		h.WriteInt(l.LinkIndex)
		h.WriteFloat64(l.SNRdB)
		h.WriteFloat64(l.TierGbps)
		h.WriteFloat64(l.FeasibleGbps)
		h.WriteFloat64(l.CapacityGbps)
		h.WriteBool(l.Fake)
		h.WriteFloat64(l.FakeCapGbps)
		h.WriteFloat64(l.FakePenalty)
		h.WriteFloat64(l.FlowGbps)
		h.WriteFloat64(l.FakeFlowGbps)
		h.WriteFloat64(l.ResidualGbps)
		h.WriteUint64(uint64(l.Verdict))
	}
	return h.Sum64()
}

// Options tunes a Recorder.
type Options struct {
	// MaxLinks is the labeled-series cardinality budget per run: only
	// the first MaxLinks links (link-table order) get
	// wan_link_snr_db/wan_link_capacity_gbps series; the rest are
	// counted into obs_flight_links_dropped_total instead of exploding
	// the registry. 0 means DefaultMaxLinks; negative means 0.
	MaxLinks int
	// Ring is the recent-frame ring depth served on /flightz.
	// 0 means DefaultRing.
	Ring int
}

// runState is the per-run bookkeeping behind Bind, plus the handles of
// the run's labeled series in the one registry and the one history shard
// its frames are written to — the recorder's live pair, or the private
// sink of a rebuild, which therefore works on runState copies.
type runState struct {
	links    []Link
	ladder   []LadderRung
	admitted int // links[:admitted] get labeled series
	// gauges[policy][link] and hist[policy][link] are resolved by the
	// first frame of the policy that mentions the link (DESIGN
	// "Observability": registration is the cold path).
	gauges map[string][]linkGauges
	hist   map[string][]linkHist
}

// linkGauges are one (run, policy, link)'s registry series; snr == nil
// means not resolved yet.
type linkGauges struct{ snr, capacity *obs.Gauge }

// policyRow returns the policy's handle row in m, one slot per link.
func policyRow[T any](m *map[string][]T, policy string, links int) []T {
	row, ok := (*m)[policy]
	if !ok {
		if *m == nil {
			*m = make(map[string][]T)
		}
		row = make([]T, links)
		(*m)[policy] = row
	}
	return row
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
// per-link series as frames arrive, but the registry embedded in the
// log trailer is rebuilt deterministically from sorted frames, so the
// log is byte-identical however the scheduler interleaved Record calls.
type Recorder struct {
	mu     sync.Mutex
	opt    Options
	runs   map[string]*runState
	frames []RoundRecord
	ring   []RoundRecord
	ringAt int
	reg    *obs.Registry
	// framesTotal is obs_flight_frames_total in reg, registered by the
	// first frame: a recorder that captured nothing publishes no series.
	framesTotal *obs.Counter
	// hist, when attached (SetHistory, see hist.go), receives every
	// frame's per-link gauges stamped at Round × histInterval.
	hist         *hist.Shard
	histInterval time.Duration
}

// New builds a Recorder.
func New(opt Options) *Recorder {
	if opt.MaxLinks == 0 {
		opt.MaxLinks = DefaultMaxLinks
	}
	if opt.MaxLinks < 0 {
		opt.MaxLinks = 0
	}
	if opt.Ring <= 0 {
		opt.Ring = DefaultRing
	}
	return &Recorder{
		opt:  opt,
		runs: make(map[string]*runState),
		reg:  obs.NewRegistry(),
	}
}

// Bind registers a run's link table and modulation ladder before its
// first Record. The cardinality budget is decided here, in link-table
// order, so admission never depends on which policy records first.
// Re-binding the same run is a no-op if the table matches and an error
// if it does not.
func (r *Recorder) Bind(run string, links []Link, ladder []LadderRung) error {
	if r == nil {
		return nil
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
		admitted: len(links),
	}
	if st.admitted > r.opt.MaxLinks {
		st.admitted = r.opt.MaxLinks
	}
	r.runs[run] = st
	if dropped := len(links) - st.admitted; dropped > 0 {
		droppedCounter(r.reg).Add(float64(dropped))
	}
	return nil
}

func droppedCounter(reg *obs.Registry) *obs.Counter {
	return reg.Counter("obs_flight_links_dropped_total",
		"Links denied labeled flight series by the cardinality budget (-flight-links).")
}

func framesCounter(reg *obs.Registry) *obs.Counter {
	return reg.Counter("obs_flight_frames_total",
		"Round records captured by the flight recorder.")
}

// Record captures one frame. The frame's Hash is (re)computed here so
// every stored frame carries the canonical digest. The run must have
// been bound; frames for unbound runs are dropped (counted as dropped
// links would be — loudly, in the recorder's own registry).
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
	r.frames = append(r.frames, rec)
	if r.framesTotal == nil {
		r.framesTotal = framesCounter(r.reg)
	}
	r.framesTotal.Inc()
	emitSeries(r.reg, st, &rec)
	if r.hist != nil {
		appendFrameHistory(r.hist, r.histInterval, st, &rec)
	}
	if len(r.ring) < r.opt.Ring {
		r.ring = append(r.ring, rec)
	} else {
		r.ring[r.ringAt] = rec
	}
	r.ringAt = (r.ringAt + 1) % r.opt.Ring
}

// emitSeries writes the per-link labeled gauges for one frame through
// st's handles, honoring the run's admission decision; reg is the
// registry every frame of st goes to, and is only touched to register.
func emitSeries(reg *obs.Registry, st *runState, rec *RoundRecord) {
	row := policyRow(&st.gauges, rec.Policy, len(st.links))
	for i := range rec.Links {
		l := &rec.Links[i]
		if l.LinkIndex < 0 || l.LinkIndex >= len(st.links) || l.LinkIndex >= st.admitted {
			continue
		}
		g := &row[l.LinkIndex]
		if g.snr == nil {
			labels := st.seriesLabels(rec, l.LinkIndex)
			g.snr = reg.Gauge("wan_link_snr_db",
				"Binding (minimum) SNR across the link's wavelengths this round.",
				labels...)
			g.capacity = reg.Gauge("wan_link_capacity_gbps",
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

// Recent returns up to n of the most recently captured frames, oldest
// first — the /flightz ring view. Capture order, not canonical order:
// this is the live debugging window.
func (r *Recorder) Recent(n int) []RoundRecord {
	if r == nil || n <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > len(r.ring) {
		n = len(r.ring)
	}
	out := make([]RoundRecord, 0, n)
	// ringAt points at the oldest entry once the ring has wrapped.
	start := 0
	if len(r.ring) == r.opt.Ring {
		start = r.ringAt
	}
	for i := 0; i < len(r.ring); i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	if len(out) > n {
		out = out[len(out)-n:]
	}
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
			Admitted: st.admitted,
		})
	}
	return out
}

// rebuildSeries renders the deterministic registry embedded in the log
// trailer: emitSeries replayed over canonically sorted frames into a
// private registry, so the last write per gauge is the last round of
// the last policy — independent of runtime interleaving.
func (r *Recorder) rebuildSeries(frames []RoundRecord) *obs.Registry {
	reg := obs.NewRegistry()
	r.mu.Lock()
	var dropped int
	runs := make(map[string]*runState, len(r.runs))
	for name, st := range r.runs {
		dropped += len(st.links) - st.admitted
		runs[name] = &runState{links: st.links, admitted: st.admitted}
	}
	r.mu.Unlock()
	if dropped > 0 {
		droppedCounter(reg).Add(float64(dropped))
	}
	if len(frames) > 0 {
		framesCounter(reg).Add(float64(len(frames)))
	}
	for i := range frames {
		if st := runs[frames[i].Run]; st != nil {
			emitSeries(reg, st, &frames[i])
		}
	}
	return reg
}
