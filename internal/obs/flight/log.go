package flight

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/container"
)

// This file implements the flight-log wire format: an
// internal/obs/container envelope (magic, header, tagged
// length-prefixed body sections, trailer) with these sections.
//
//	"RWCFLT4\n"
//	'H' header  JSON   (tool, seed, max_links)
//	'R' run     JSON   (one per bound run, sorted by name, before any
//	                    frame; each records its own time axis and the
//	                    names of its verdicts)
//	'F' frame   binary (one per round record, see frame.go: each
//	                    (run, policy)'s frames in round order, a
//	                    keyframe then deltas, the streams in canonical
//	                    (run, policy) order)
//	'T' trailer binary (uvarint-prefixed -metrics-out bytes, then
//	                    uvarint-prefixed -trace-out bytes)
//
// Frames are little-endian scalars, uvarint counts and XOR deltas —
// compact enough to hold every round in memory until the run ends,
// self-describing enough that a reader never needs the producing
// binary. Unknown section types are an error: the version in the magic
// is the compatibility gate.

// Magic identifies a flight log (8 bytes, version baked in).
const Magic = "RWCFLT4\n"

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
	// Events stands in for Trace when a run writes its log: the trace
	// as the tracer holds it, which WriteLog renders straight into the
	// trailer, so the rendered trace is never held. TrailerOf sets it;
	// ReadLog leaves it nil.
	Events *obs.JSONL
}

// Log is a fully decoded flight log.
type Log struct {
	Meta     Meta
	MaxLinks int
	Runs     []Run
	// Frames are canonically sorted (run, policy, round): ReadLog
	// refuses a log whose frames are not.
	Frames  []RoundRecord
	Trailer Trailer
}

// TrailerOf is o's trailer as a run writes it: the metrics registry
// rendered once, as the bytes -metrics-out holds, and the trace as its
// records (Trailer.Events), rendered only as -trace-out or the log is
// written. It fails, before anything is written, when a trace event
// cannot render. nil (or an obs bundle without those sinks) yields
// empty ones.
func TrailerOf(o *obs.Obs) (Trailer, error) {
	if o == nil {
		return Trailer{}, nil
	}
	var metrics bytes.Buffer
	if err := o.Metrics.WritePrometheus(&metrics); err != nil {
		return Trailer{}, err
	}
	tr := Trailer{Metrics: metrics.Bytes(), Events: o.Trace.JSONL()}
	if err := tr.Events.Err(); err != nil {
		return Trailer{Metrics: tr.Metrics}, fmt.Errorf("flight: trace: %w", err)
	}
	return tr, nil
}

// WriteLog writes the recorder's state as a flight log, with tr (the
// run's metrics and trace, see TrailerOf) as its trailer. The frames
// are written as Record encoded them, stream after stream, and a trace
// given as Events is rendered into the trailer once its length is
// known.
func (r *Recorder) WriteLog(w io.Writer, meta Meta, tr Trailer) error {
	if r == nil {
		return fmt.Errorf("flight: nil recorder")
	}
	r.mu.Lock()
	streams := make([]stream, 0, len(r.streams))
	for _, s := range r.streams {
		streams = append(streams, s.snapshot())
	}
	r.mu.Unlock()
	// After the streams: every run they name was bound before them.
	runs := r.Runs()
	sort.Slice(streams, func(i, j int) bool { return streams[i].key.before(streams[j].key) })
	cw := container.NewWriter(w, Magic)
	if err := cw.JSON(container.HeaderTag, header{Tool: meta.Tool, Seed: meta.Seed, MaxLinks: DefaultMaxLinks}); err != nil {
		return err
	}
	runIndex := make(map[string]int)
	for i, run := range runs {
		if err := cw.JSON(secRun, run); err != nil {
			return err
		}
		runIndex[run.Name] = i
	}
	var idx [binary.MaxVarintLen64]byte
	for i := range streams {
		s := &streams[i]
		if err := s.writeFrames(cw, binary.AppendUvarint(idx[:0], uint64(runIndex[s.key.run]))); err != nil {
			return err
		}
	}
	traceLen, writeTrace := int64(len(tr.Trace)), func(w io.Writer) error {
		_, err := w.Write(tr.Trace)
		return err
	}
	if tr.Events != nil {
		var err error
		if traceLen, err = tr.Events.Size(); err != nil {
			return fmt.Errorf("flight: trace: %w", err)
		}
		writeTrace = func(w io.Writer) error {
			_, err := tr.Events.WriteTo(w)
			return err
		}
	}
	mPrefix := binary.AppendUvarint(nil, uint64(len(tr.Metrics)))
	tPrefix := binary.AppendUvarint(nil, uint64(traceLen))
	size := int64(len(mPrefix)+len(tr.Metrics)+len(tPrefix)) + traceLen
	if err := cw.SectionFunc(container.TrailerTag, size, func(w io.Writer) error {
		for _, p := range [][]byte{mPrefix, tr.Metrics, tPrefix} {
			if _, err := w.Write(p); err != nil {
				return err
			}
		}
		return writeTrace(w)
	}); err != nil {
		return err
	}
	return cw.Flush()
}

// ReadLog decodes a flight log, rebuilding every frame in full. It
// fails loudly on truncation, unknown sections, or structural
// inconsistencies — among them a delta frame with no base or a base of
// another (run, policy), rounds that do not increase within a stream,
// streams out of canonical order and malformed mask or length bytes;
// use VerifyHashes to also check the per-frame digests.
func ReadLog(r io.Reader) (*Log, error) {
	log := &Log{}
	var (
		verdicts []uint8  // the last frame's link verdicts, a delta's base
		wire     [][]byte // each frame's link records, as read
	)
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
			var prev *RoundRecord
			if n := len(log.Frames); n > 0 {
				prev = &log.Frames[n-1]
			}
			rec, links, err := decodeFrame(payload, log.Runs, prev, &verdicts)
			if err != nil {
				return err
			}
			log.Frames = append(log.Frames, rec)
			wire = append(wire, bytes.Clone(links))
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
	if err := log.expand(wire); err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	return log, nil
}

// expand gives every frame its link records, decoded from its wire
// bytes once the whole log has checked. An
// unchanged link is one byte on the wire and a 72-byte LinkRecord in
// the log, so a log that fails to read never pays for its records.
func (l *Log) expand(wire [][]byte) error {
	// Every frame named its run by index and run names are unique.
	links := make(map[string]int, len(l.Runs))
	for i := range l.Runs {
		links[l.Runs[i].Name] = len(l.Runs[i].Links)
	}
	total := 0
	for i := range l.Frames {
		total += links[l.Frames[i].Run]
	}
	all := make([]LinkRecord, total)
	for i := range l.Frames {
		f := &l.Frames[i]
		n := links[f.Run]
		f.Links, all = all[:n:n], all[n:]
		// A keyframe decodes against its own zeroed records, a delta
		// against the frame before it.
		base := f.Links
		if i > 0 && l.Frames[i-1].Run == f.Run && l.Frames[i-1].Policy == f.Policy {
			base = l.Frames[i-1].Links
		}
		c := container.NewCursor(wire[i])
		for j := range f.Links {
			d, err := readLink(c)
			if err != nil {
				return err
			}
			d.apply(&base[j], &f.Links[j])
			f.Links[j].LinkIndex = j
		}
	}
	return nil
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
