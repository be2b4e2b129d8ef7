package flight

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/container"
)

// This file implements the flight-log wire format: an
// internal/obs/container file (magic, then tagged length-prefixed
// sections) with these sections.
//
//	"RWCFLT1\n"
//	'H' header  JSON   (version, tool, seed, max_links)
//	'R' run     JSON   (one per bound run, sorted by name)
//	'F' frame   binary (one per round record, canonical order)
//	'T' trailer JSON   (run registry dump + canonical trace lines)
//
// Frames are fixed little-endian scalars with uvarint counts — compact
// enough to stream every round, self-describing enough that a reader
// never needs the producing binary. Unknown section types are an
// error: the version byte in the magic is the compatibility gate.

// Magic identifies a flight log (8 bytes, version baked in).
const Magic = "RWCFLT1\n"

// section type tags.
const (
	secHeader  = 'H'
	secRun     = 'R'
	secFrame   = 'F'
	secTrailer = 'T'
)

// Meta identifies the producing run in the log header.
type Meta struct {
	Tool string `json:"tool,omitempty"`
	Seed int64  `json:"seed,omitempty"`
	// Interval is the producing run's round interval. Frames carry
	// round indices, not timestamps; the interval lets history rebuilds
	// (rwc-replay hist) stamp round × Interval exactly like the live
	// run did. Zero when the producer had no single cadence
	// (rwc-experiments figures differ per figure); a run table whose
	// interval differs from it records its own.
	Interval time.Duration `json:"-"`
}

// header is the 'H' section payload.
type header struct {
	Version    int    `json:"version"`
	Tool       string `json:"tool,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	IntervalNs int64  `json:"interval_ns,omitempty"`
	MaxLinks   int    `json:"max_links"`
}

// Run is the 'R' section payload: one bound run's link table and the
// time axis of its rounds (Recorder.Bind).
type Run struct {
	Name     string       `json:"name"`
	Links    []Link       `json:"links"`
	Ladder   []LadderRung `json:"ladder,omitempty"`
	Admitted int          `json:"admitted"`
	// Origin is the simulation time of round 0 (non-zero for daemon
	// generations after the first).
	Origin time.Duration `json:"origin_ns,omitempty"`
	// Interval is the run's round interval. The log records it only
	// where it differs from the header's; 0 read back means the header's.
	Interval time.Duration `json:"interval_ns,omitempty"`
}

// Trailer is the 'T' section payload: everything replay needs to
// re-render the original run's artifacts byte-for-byte. (Logs written
// before the recorder's series left the trailer also carry a "series"
// key, which decoding skips.)
type Trailer struct {
	// Metrics is the run's own registry (the -metrics-out content).
	Metrics obs.RegistryDump `json:"metrics,omitempty"`
	// Trace holds the run's trace events as canonical JSON lines (the
	// -trace-out content, one entry per line).
	Trace []json.RawMessage `json:"trace,omitempty"`
}

// Log is a fully decoded flight log.
type Log struct {
	Meta     Meta
	MaxLinks int
	Runs     []Run
	// Frames are canonically sorted (run, policy, round).
	Frames  []RoundRecord
	Trailer Trailer
}

// WriteLog streams the recorder's state as a flight log. o supplies
// the run's own metrics registry and trace for the trailer; nil (or an
// obs bundle without those sinks) embeds empty trailer sections, which
// replay reports as "not recorded" rather than rendering empty files.
func (r *Recorder) WriteLog(w io.Writer, meta Meta, o *obs.Obs) error {
	if r == nil {
		return fmt.Errorf("flight: nil recorder")
	}
	frames := r.Frames()
	cw := container.NewWriter(w, Magic)
	h := header{Version: 1, Tool: meta.Tool, Seed: meta.Seed, IntervalNs: meta.Interval.Nanoseconds(), MaxLinks: DefaultMaxLinks}
	if err := cw.JSON(secHeader, h); err != nil {
		return err
	}
	runIndex := make(map[string]int)
	for i, run := range r.Runs() {
		if run.Interval == meta.Interval {
			run.Interval = 0
		}
		if err := cw.JSON(secRun, run); err != nil {
			return err
		}
		runIndex[run.Name] = i
	}
	var buf []byte
	for i := range frames {
		idx, ok := runIndex[frames[i].Run]
		if !ok {
			return fmt.Errorf("flight: frame for unbound run %q", frames[i].Run)
		}
		buf = encodeFrame(buf[:0], idx, &frames[i])
		if err := cw.Section(secFrame, buf); err != nil {
			return err
		}
	}
	var tr Trailer
	if o != nil {
		tr.Metrics = o.Metrics.Export()
		if o.Trace != nil {
			for _, ev := range o.Trace.Events() {
				line, err := obs.MarshalEvent(ev)
				if err != nil {
					return fmt.Errorf("flight: marshal trace event: %w", err)
				}
				tr.Trace = append(tr.Trace, json.RawMessage(line))
			}
		}
	}
	if err := cw.JSON(secTrailer, tr); err != nil {
		return err
	}
	return cw.Flush()
}

// encodeFrame appends one frame's binary payload to b.
func encodeFrame(b []byte, runIdx int, rec *RoundRecord) []byte {
	b = binary.AppendUvarint(b, uint64(runIdx))
	b = binary.AppendUvarint(b, uint64(len(rec.Policy)))
	b = append(b, rec.Policy...)
	b = binary.AppendUvarint(b, uint64(rec.Round))
	b = appendF64(b, rec.OfferedGbps)
	b = appendF64(b, rec.ShippedGbps)
	b = appendF64(b, rec.CapacityGbps)
	b = binary.AppendUvarint(b, uint64(rec.Changes))
	b = binary.LittleEndian.AppendUint64(b, rec.Hash)
	b = binary.AppendUvarint(b, uint64(len(rec.Links)))
	for i := range rec.Links {
		l := &rec.Links[i]
		b = binary.AppendUvarint(b, uint64(l.LinkIndex))
		b = appendF64(b, l.SNRdB)
		b = appendF64(b, l.TierGbps)
		b = appendF64(b, l.FeasibleGbps)
		b = appendF64(b, l.CapacityGbps)
		if l.Fake {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendF64(b, l.FakeCapGbps)
		b = appendF64(b, l.FakePenalty)
		b = appendF64(b, l.FlowGbps)
		b = appendF64(b, l.FakeFlowGbps)
		b = appendF64(b, l.ResidualGbps)
		b = append(b, byte(l.Verdict))
	}
	return b
}

func appendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// minLinkBytes is the smallest encoding of one link record: a one-byte
// index, nine doubles, the fake flag and the verdict.
const minLinkBytes = 1 + 9*8 + 2

// decodeFrame parses one frame payload; runs resolves run indices.
func decodeFrame(payload []byte, runs []Run) (RoundRecord, error) {
	c := container.NewCursor(payload)
	var rec RoundRecord
	runIdx := c.Uvarint()
	rec.Policy = string(c.Bytes(c.Uvarint()))
	rec.Round = int(c.Uvarint())
	rec.OfferedGbps = c.F64()
	rec.ShippedGbps = c.F64()
	rec.CapacityGbps = c.F64()
	rec.Changes = int(c.Uvarint())
	rec.Hash = c.U64()
	nLinks := c.Uvarint()
	if err := c.Err(); err != nil {
		return rec, fmt.Errorf("flight: frame: %w", err)
	}
	if runIdx >= uint64(len(runs)) {
		return rec, fmt.Errorf("flight: frame references run %d of %d", runIdx, len(runs))
	}
	rec.Run = runs[runIdx].Name
	if nLinks > uint64(len(runs[runIdx].Links)) {
		return rec, fmt.Errorf("flight: frame has %d links, run table has %d", nLinks, len(runs[runIdx].Links))
	}
	// The count is untrusted: check the payload can hold that many
	// records before allocating them.
	if nLinks > uint64(c.Len()/minLinkBytes) {
		return rec, fmt.Errorf("flight: frame claims %d links in %d bytes", nLinks, c.Len())
	}
	rec.Links = make([]LinkRecord, nLinks)
	for i := range rec.Links {
		l := &rec.Links[i]
		l.LinkIndex = int(c.Uvarint())
		l.SNRdB = c.F64()
		l.TierGbps = c.F64()
		l.FeasibleGbps = c.F64()
		l.CapacityGbps = c.F64()
		l.Fake = c.Byte() != 0
		l.FakeCapGbps = c.F64()
		l.FakePenalty = c.F64()
		l.FlowGbps = c.F64()
		l.FakeFlowGbps = c.F64()
		l.ResidualGbps = c.F64()
		verdict := c.Byte()
		if verdict >= byte(verdictCount) {
			return rec, fmt.Errorf("flight: unknown verdict %d", verdict)
		}
		l.Verdict = Verdict(verdict)
	}
	if err := c.Err(); err != nil {
		return rec, fmt.Errorf("flight: frame: %w", err)
	}
	if c.Len() != 0 {
		return rec, fmt.Errorf("flight: %d trailing bytes in frame", c.Len())
	}
	return rec, nil
}

// ReadLog decodes a flight log. It fails loudly on truncation, unknown
// sections, or structural inconsistencies; use VerifyHashes to also
// check the per-frame digests.
func ReadLog(r io.Reader) (*Log, error) {
	cr, err := container.Open(r, Magic)
	if err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	log := &Log{}
	sawHeader, sawTrailer := false, false
	for {
		tag, payload, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("flight: %w", err)
		}
		switch tag {
		case secHeader:
			var h header
			if err := json.Unmarshal(payload, &h); err != nil {
				return nil, fmt.Errorf("flight: header: %w", err)
			}
			if h.Version != 1 {
				return nil, fmt.Errorf("flight: unsupported log version %d", h.Version)
			}
			log.Meta = Meta{Tool: h.Tool, Seed: h.Seed, Interval: time.Duration(h.IntervalNs)}
			log.MaxLinks = h.MaxLinks
			sawHeader = true
		case secRun:
			var run Run
			if err := json.Unmarshal(payload, &run); err != nil {
				return nil, fmt.Errorf("flight: run table: %w", err)
			}
			log.Runs = append(log.Runs, run)
		case secFrame:
			rec, err := decodeFrame(payload, log.Runs)
			if err != nil {
				return nil, err
			}
			log.Frames = append(log.Frames, rec)
		case secTrailer:
			if err := json.Unmarshal(payload, &log.Trailer); err != nil {
				return nil, fmt.Errorf("flight: trailer: %w", err)
			}
			sawTrailer = true
		default:
			return nil, fmt.Errorf("flight: unknown section type %q", tag)
		}
	}
	if !sawHeader {
		return nil, fmt.Errorf("flight: log has no header section")
	}
	if !sawTrailer {
		return nil, fmt.Errorf("flight: log has no trailer section (truncated write?)")
	}
	sortFrames(log.Frames)
	return log, nil
}

// VerifyHashes recomputes every frame's canonical digest and reports
// the first mismatch — a corrupt or hand-edited log.
func (l *Log) VerifyHashes() error {
	for i := range l.Frames {
		rec := l.Frames[i]
		want := rec.Hash
		if got := hashRecord(&rec); got != want {
			return fmt.Errorf("flight: frame (run %q, policy %q, round %d) hash %016x, recomputed %016x",
				rec.Run, rec.Policy, rec.Round, want, got)
		}
	}
	return nil
}

// run returns the run table entry for a name.
func (l *Log) run(name string) (*Run, error) {
	for i := range l.Runs {
		if l.Runs[i].Name == name {
			return &l.Runs[i], nil
		}
	}
	return nil, fmt.Errorf("flight: log has no run %q", name)
}

// linkJSON is the JSONL rendering of one LinkRecord, names resolved.
type linkJSON struct {
	Link         string  `json:"link"`
	Edge         int     `json:"edge"`
	SNRdB        float64 `json:"snr_db"`
	TierGbps     float64 `json:"tier_gbps"`
	FeasibleGbps float64 `json:"feasible_gbps"`
	CapacityGbps float64 `json:"capacity_gbps"`
	Fake         bool    `json:"fake,omitempty"`
	FakeCapGbps  float64 `json:"fake_cap_gbps,omitempty"`
	FakePenalty  float64 `json:"fake_penalty,omitempty"`
	FlowGbps     float64 `json:"flow_gbps"`
	FakeFlowGbps float64 `json:"fake_flow_gbps,omitempty"`
	ResidualGbps float64 `json:"residual_gbps,omitempty"`
	Verdict      string  `json:"verdict"`
}

// frameJSON is the JSONL rendering of one RoundRecord.
type frameJSON struct {
	Run          string     `json:"run,omitempty"`
	Policy       string     `json:"policy"`
	Round        int        `json:"round"`
	OfferedGbps  float64    `json:"offered_gbps"`
	ShippedGbps  float64    `json:"shipped_gbps"`
	CapacityGbps float64    `json:"capacity_gbps"`
	Changes      int        `json:"changes"`
	Hash         string     `json:"hash"`
	Links        []linkJSON `json:"links"`
}

// WriteJSONL renders the log's frames as one JSON object per line —
// the export mode for jq/pandas consumers. Link names are resolved
// from the run tables and hashes rendered as fixed-width hex.
func (l *Log) WriteJSONL(w io.Writer) error {
	for i := range l.Frames {
		rec := &l.Frames[i]
		run, err := l.run(rec.Run)
		if err != nil {
			return err
		}
		fj := frameJSON{
			Run:          rec.Run,
			Policy:       rec.Policy,
			Round:        rec.Round,
			OfferedGbps:  rec.OfferedGbps,
			ShippedGbps:  rec.ShippedGbps,
			CapacityGbps: rec.CapacityGbps,
			Changes:      rec.Changes,
			Hash:         fmt.Sprintf("%016x", rec.Hash),
			Links:        make([]linkJSON, 0, len(rec.Links)),
		}
		for j := range rec.Links {
			lr := &rec.Links[j]
			name := fmt.Sprintf("link#%d", lr.LinkIndex)
			edge := -1
			if lr.LinkIndex >= 0 && lr.LinkIndex < len(run.Links) {
				name = run.Links[lr.LinkIndex].Name
				edge = run.Links[lr.LinkIndex].Edge
			}
			fj.Links = append(fj.Links, linkJSON{
				Link:         name,
				Edge:         edge,
				SNRdB:        lr.SNRdB,
				TierGbps:     lr.TierGbps,
				FeasibleGbps: lr.FeasibleGbps,
				CapacityGbps: lr.CapacityGbps,
				Fake:         lr.Fake,
				FakeCapGbps:  lr.FakeCapGbps,
				FakePenalty:  lr.FakePenalty,
				FlowGbps:     lr.FlowGbps,
				FakeFlowGbps: lr.FakeFlowGbps,
				ResidualGbps: lr.ResidualGbps,
				Verdict:      lr.Verdict.String(),
			})
		}
		line, err := json.Marshal(fj)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}
