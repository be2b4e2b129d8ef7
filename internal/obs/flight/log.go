package flight

import (
	"bytes"
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
// internal/obs/container envelope (magic, header, tagged
// length-prefixed body sections, trailer) with these sections.
//
//	"RWCFLT3\n"
//	'H' header  JSON   (tool, seed, max_links)
//	'R' run     JSON   (one per bound run, sorted by name, before any
//	                    frame; each records its own time axis and the
//	                    names of its verdicts)
//	'F' frame   binary (one per round record, canonical order, one per
//	                    (run, policy, round); one fixed-size row per link
//	                    of the run's table, in table order)
//	'T' trailer binary (uvarint-prefixed -metrics-out bytes, then
//	                    uvarint-prefixed -trace-out bytes)
//
// Frames are fixed little-endian scalars with uvarint counts — compact
// enough to stream every round, self-describing enough that a reader
// never needs the producing binary. Unknown section types are an
// error: the version in the magic is the compatibility gate.

// Magic identifies a flight log (8 bytes, version baked in).
const Magic = "RWCFLT3\n"

// body section type tags (the header and trailer are the container's).
const (
	secRun   = 'R'
	secFrame = 'F'
)

// Meta identifies the producing run in the log header.
type Meta struct {
	Tool string `json:"tool,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
}

// header is the 'H' section payload.
type header struct {
	Tool     string `json:"tool,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	MaxLinks int    `json:"max_links"`
}

// Run is the 'R' section payload: one bound run's link table, ladder,
// verdict names and the time axis of its rounds (Recorder.Bind): round
// r happens at Origin + r × Interval.
type Run struct {
	Name     string       `json:"name"`
	Links    []Link       `json:"links"`
	Ladder   []LadderRung `json:"ladder,omitempty"`
	Verdicts []string     `json:"verdicts,omitempty"`
	Admitted int          `json:"admitted"`
	// Origin is the simulation time of round 0 (non-zero for daemon
	// generations after the first).
	Origin time.Duration `json:"origin_ns,omitempty"`
	// Interval is the run's round interval, always positive.
	Interval time.Duration `json:"interval_ns"`
}

// Trailer is the 'T' section payload: the original run's artifacts as
// the run wrote them, which replay writes or compares byte for byte.
type Trailer struct {
	// Metrics is the run registry's Prometheus exposition (the
	// -metrics-out content).
	Metrics []byte
	// Trace is the run's JSONL trace (the -trace-out content).
	Trace []byte
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

// TrailerOf renders o's metrics registry and trace once, as the bytes
// -metrics-out and -trace-out hold and a flight log's trailer embeds.
// nil (or an obs bundle without those sinks) renders empty ones.
func TrailerOf(o *obs.Obs) (Trailer, error) {
	if o == nil {
		return Trailer{}, nil
	}
	var metrics, trace bytes.Buffer
	if err := o.Metrics.WritePrometheus(&metrics); err != nil {
		return Trailer{}, err
	}
	if err := o.Trace.WriteJSONL(&trace); err != nil {
		return Trailer{Metrics: metrics.Bytes()}, fmt.Errorf("flight: trace: %w", err)
	}
	return Trailer{Metrics: metrics.Bytes(), Trace: trace.Bytes()}, nil
}

// WriteLog streams the recorder's state as a flight log, with tr (the
// run's rendered metrics and trace, see TrailerOf) as its trailer.
func (r *Recorder) WriteLog(w io.Writer, meta Meta, tr Trailer) error {
	if r == nil {
		return fmt.Errorf("flight: nil recorder")
	}
	frames := r.Frames()
	cw := container.NewWriter(w, Magic)
	if err := cw.JSON(container.HeaderTag, header{Tool: meta.Tool, Seed: meta.Seed, MaxLinks: DefaultMaxLinks}); err != nil {
		return err
	}
	runIndex := make(map[string]int)
	for i, run := range r.Runs() {
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
	var mLen, tLen [binary.MaxVarintLen64]byte
	if err := cw.Section(container.TrailerTag,
		binary.AppendUvarint(mLen[:0], uint64(len(tr.Metrics))), tr.Metrics,
		binary.AppendUvarint(tLen[:0], uint64(len(tr.Trace))), tr.Trace); err != nil {
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
	for i := range rec.Links {
		l := &rec.Links[i]
		b = appendF64(b, l.SNRdB)
		b = appendF64(b, l.FeasibleGbps)
		b = appendF64(b, l.CapacityGbps)
		b = appendF64(b, l.FakeCapGbps)
		b = appendF64(b, l.FakePenalty)
		b = appendF64(b, l.FlowGbps)
		b = appendF64(b, l.FakeFlowGbps)
		b = append(b, l.Verdict)
	}
	return b
}

func appendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// linkBytes is the encoding of one link record: seven doubles and the
// verdict.
const linkBytes = 7*8 + 1

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
	if err := c.Err(); err != nil {
		return rec, fmt.Errorf("frame: %w", err)
	}
	if runIdx >= uint64(len(runs)) {
		return rec, fmt.Errorf("frame references run %d of %d", runIdx, len(runs))
	}
	run := &runs[runIdx]
	rec.Run = run.Name
	// The run table's link count is untrusted too: check the payload
	// holds exactly that many records before allocating them.
	if c.Len() != len(run.Links)*linkBytes {
		return rec, fmt.Errorf("frame has %d bytes of link records, run table's %d links take %d",
			c.Len(), len(run.Links), len(run.Links)*linkBytes)
	}
	rec.Links = make([]LinkRecord, len(run.Links))
	for i := range rec.Links {
		l := &rec.Links[i]
		l.LinkIndex = i
		l.SNRdB = c.F64()
		l.FeasibleGbps = c.F64()
		l.CapacityGbps = c.F64()
		l.FakeCapGbps = c.F64()
		l.FakePenalty = c.F64()
		l.FlowGbps = c.F64()
		l.FakeFlowGbps = c.F64()
		l.Verdict = c.Byte()
		if int(l.Verdict) >= len(run.Verdicts) {
			return rec, fmt.Errorf("link %d verdict %d, run table names %d", i, l.Verdict, len(run.Verdicts))
		}
	}
	return rec, nil
}

// ReadLog decodes a flight log. It fails loudly on truncation, unknown
// sections, or structural inconsistencies; use VerifyHashes to also
// check the per-frame digests.
func ReadLog(r io.Reader) (*Log, error) {
	log := &Log{}
	hdr, tr, err := container.ReadEnvelope(r, Magic, func(tag byte, payload []byte) error {
		switch tag {
		case secRun:
			if len(log.Frames) > 0 {
				return fmt.Errorf("run table after the first frame")
			}
			var run Run
			if err := json.Unmarshal(payload, &run); err != nil {
				return fmt.Errorf("run table: %w", err)
			}
			if run.Interval <= 0 {
				return fmt.Errorf("run %q has round interval %v, want > 0", run.Name, run.Interval)
			}
			// Frames name their run and readers look it up by name, so
			// a name must be unique; a recorder keys runs by name.
			if _, err := log.run(run.Name); err == nil {
				return fmt.Errorf("duplicate run name %q", run.Name)
			}
			// Admission is a prefix of the link table that the history
			// rebuild slices every frame to.
			if run.Admitted < 0 || run.Admitted > len(run.Links) {
				return fmt.Errorf("run %q admits %d of %d links", run.Name, run.Admitted, len(run.Links))
			}
			log.Runs = append(log.Runs, run)
		case secFrame:
			rec, err := decodeFrame(payload, log.Runs)
			if err != nil {
				return err
			}
			log.Frames = append(log.Frames, rec)
		default:
			return fmt.Errorf("unknown section type %q", tag)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	var h header
	if err := json.Unmarshal(hdr, &h); err != nil {
		return nil, fmt.Errorf("flight: header: %w", err)
	}
	log.Meta = Meta{Tool: h.Tool, Seed: h.Seed}
	log.MaxLinks = h.MaxLinks
	c := container.NewCursor(tr)
	log.Trailer.Metrics = c.Bytes(c.Uvarint())
	log.Trailer.Trace = c.Bytes(c.Uvarint())
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("flight: trailer: %w", err)
	}
	if c.Len() != 0 {
		return nil, fmt.Errorf("flight: %d trailing bytes in trailer", c.Len())
	}
	sortFrames(log.Frames)
	for i := 1; i < len(log.Frames); i++ {
		if a, b := &log.Frames[i-1], &log.Frames[i]; a.Run == b.Run && a.Policy == b.Policy && a.Round == b.Round {
			return nil, fmt.Errorf("flight: two frames for (run %q, policy %q, round %d)", a.Run, a.Policy, a.Round)
		}
	}
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
	FeasibleGbps float64 `json:"feasible_gbps"`
	CapacityGbps float64 `json:"capacity_gbps"`
	FakeCapGbps  float64 `json:"fake_cap_gbps,omitempty"`
	FakePenalty  float64 `json:"fake_penalty,omitempty"`
	FlowGbps     float64 `json:"flow_gbps"`
	FakeFlowGbps float64 `json:"fake_flow_gbps,omitempty"`
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
			fj.Links = append(fj.Links, linkJSON{
				Link:         run.Links[j].Name,
				Edge:         run.Links[j].Edge,
				SNRdB:        lr.SNRdB,
				FeasibleGbps: lr.FeasibleGbps,
				CapacityGbps: lr.CapacityGbps,
				FakeCapGbps:  lr.FakeCapGbps,
				FakePenalty:  lr.FakePenalty,
				FlowGbps:     lr.FlowGbps,
				FakeFlowGbps: lr.FakeFlowGbps,
				Verdict:      run.Verdicts[lr.Verdict],
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
