// Package flight implements a deterministic flight recorder for the
// capacity-decision pipeline: one compact record per simulation round
// capturing, for every link, the full causal chain of Theorem 1 (§4) —
// SNR sample → modulation tier → fake-edge offer ⟨capacity, penalty⟩
// (§3.2) → solver selection → decision gate → applied capacity — plus
// aggregate flow and a canonical FNV-64 state hash.
//
// The recorder writes a log and nothing else: a binary log (see log.go;
// the framing is internal/obs/container's) with a JSONL export mode,
// which cmd/rwc-replay replays, explains and turns into history, and
// rwc-diff bisects. The per-link labeled series
// (wan_link_snr_db{link=...}, wan_link_capacity_gbps{link=...}) exist
// only rebuilt from a log (Log.History, see hist.go), under the
// admission budget Bind records. Nothing the recorder does ever
// touches the run's own metrics/trace/manifest/history, so runs with
// and without a recorder produce byte-identical artifacts.
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

// DefaultMaxLinks is the per-run admission budget of Log.History's
// rebuild: only the first DefaultMaxLinks links (link-table order) get
// wan_link_snr_db/wan_link_capacity_gbps history series. Bind decides
// it and each run table records it as the admitted count; every link
// is still in every frame. It is enough for every backbone topology in
// this repo while keeping a hostile or degenerate topology from
// exploding the rebuilt store.
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
	// Run distinguishes the simulations sharing a recorder
	// (rwc-wansimd's config generations gen2, gen3, ...); "" for the
	// first, and for rwc-wansim's one run.
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

// The per-link gauge families, the only ones Log.History rebuilds.
const (
	snrFamily      = "wan_link_snr_db"
	capacityFamily = "wan_link_capacity_gbps"
)

// Recorder captures round records. All methods are safe for concurrent
// use (policy runs record concurrently under -workers) and nil-safe,
// so a disabled recorder costs one nil check.
//
// The log carries the frames, sorted canonically, so it is
// byte-identical however the scheduler interleaved Record calls.
type Recorder struct {
	mu     sync.Mutex
	runs   map[string]*Run
	frames []RoundRecord
}

// New builds a Recorder.
func New() *Recorder {
	return &Recorder{runs: make(map[string]*Run)}
}

// Bind registers a run's link table, modulation ladder and verdict
// names (a LinkRecord's Verdict indexes them) before its first Record,
// with the time axis its rounds run on: round r happens at origin + r ×
// interval. Log.History's admission budget (DefaultMaxLinks) is
// decided here, in link-table order, so admission never depends on
// which policy records first. Re-binding the same run is a no-op if
// the table matches (the first time axis stands) and an error if it
// does not. The interval must be positive: a run without one has no
// time axis.
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
		if len(prev.Links) != len(links) {
			return fmt.Errorf("flight: run %q re-bound with %d links (was %d)", run, len(links), len(prev.Links))
		}
		for i := range links {
			if prev.Links[i] != links[i] {
				return fmt.Errorf("flight: run %q re-bound with different link %d (%q vs %q)",
					run, i, links[i].Name, prev.Links[i].Name)
			}
		}
		return nil
	}
	r.runs[run] = &Run{
		Name:     run,
		Links:    append([]Link(nil), links...),
		Ladder:   append([]LadderRung(nil), ladder...),
		Verdicts: append([]string(nil), verdicts...),
		Admitted: min(len(links), DefaultMaxLinks),
		Origin:   origin,
		Interval: interval,
	}
	return nil
}

// Record captures one frame. The frame's Hash is (re)computed here so
// every stored frame carries the canonical digest. The run must have
// been bound and the frame must carry one record per link of its
// table; any other frame is an error, and the log does not hold it.
func (r *Recorder) Record(rec RoundRecord) error {
	if r == nil {
		return nil
	}
	rec.Hash = hashRecord(&rec)
	r.mu.Lock()
	defer r.mu.Unlock()
	run := r.runs[rec.Run]
	if run == nil {
		return fmt.Errorf("flight: frame for run %q, which was never bound", rec.Run)
	}
	if len(rec.Links) != len(run.Links) {
		return fmt.Errorf("flight: run %q %s round %d frame has %d link records, want %d",
			rec.Run, rec.Policy, rec.Round, len(rec.Links), len(run.Links))
	}
	r.frames = append(r.frames, rec)
	return nil
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
		run := *r.runs[name]
		run.Links = append([]Link(nil), run.Links...)
		run.Ladder = append([]LadderRung(nil), run.Ladder...)
		run.Verdicts = append([]string(nil), run.Verdicts...)
		out = append(out, run)
	}
	return out
}
