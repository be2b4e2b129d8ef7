package hist

// On-disk history artifacts: an internal/obs/container envelope
// (magic, header, tagged length-prefixed body sections, trailer) with
// these sections.
//
//	magic   "RWCHIST1\n"
//	'H'     header JSON: version, tool, seed, dropped, series count
//	'S'     one per series, in canonical key order: a JSON descriptor
//	        (name, labels, type, total) followed by fixed-width
//	        little-endian samples
//	'T'     trailer JSON: series count again (truncation guard)
//
// A section with any other tag is an error: no writer emits one, and
// the version in the magic is the compatibility gate.
//
// Everything serialized is already canonical (Archive freezes the
// cross-shard merge, Store.WriteBinary writes the same merge series by
// series, encoding/json emits struct fields in declaration order), so
// same-seed runs write byte-identical files at any -workers count — CI
// compares them with cmp(1).

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/container"
)

// Magic identifies a binary history artifact.
const Magic = "RWCHIST1\n"

const (
	secSeries = 'S'

	codecVersion = 1
)

type header struct {
	Version int    `json:"version"`
	Tool    string `json:"tool,omitempty"`
	Seed    uint64 `json:"seed"`
	Dropped int    `json:"dropped,omitempty"`
	Series  int    `json:"series"`
}

type trailer struct {
	Series int `json:"series"`
}

// seriesDesc is the JSON prefix of one 'S' section; the binary sample
// array follows it inside the same section payload. Archives written
// before the store lost its downsample tier could carry a "blocks"
// count here: decoding ignores the key, and the block bytes after the
// samples then fail the payload-length check.
type seriesDesc struct {
	Name    string      `json:"name"`
	Labels  []obs.Label `json:"labels,omitempty"`
	Type    string      `json:"type"`
	Total   uint64      `json:"total"`
	Samples int         `json:"samples"`
}

// WriteBinary serializes the archive canonically.
func (a *Archive) WriteBinary(w io.Writer) error {
	return writeBinary(w, a.Meta, len(a.Series), func(i int, payload []byte) []byte {
		return appendSeries(payload, a.Series[i])
	})
}

// WriteBinary writes the store's archive, byte for byte what
// Archive().WriteBinary writes, series by series: each series is
// decoded into one reused sample buffer and encoded into one reused
// payload, so the store is never copied whole. The series are the ones
// the store holds when it is called.
func (st *Store) WriteBinary(w io.Writer) error {
	if st == nil {
		return (&Archive{}).WriteBinary(w)
	}
	meta := Meta{Tool: st.opt.Tool, Seed: st.opt.Seed}
	st.mu.Lock()
	groups := st.group("")
	meta.Dropped = st.dropped
	st.mu.Unlock()
	var samples []obs.Sample
	return writeBinary(w, meta, len(groups), func(i int, payload []byte) []byte {
		st.mu.Lock()
		v := viewOf(groups[i], samples[:0])
		st.mu.Unlock()
		sortSamples(v.samples)
		samples = v.samples
		return appendSeries(payload, Series{Name: v.name, Labels: v.labels, Type: v.typ, Total: v.total, Samples: v.samples})
	})
}

// writeBinary writes one archive of n series: series appends the i-th
// one's 'S' payload to a reused buffer.
func writeBinary(w io.Writer, meta Meta, n int, series func(i int, payload []byte) []byte) error {
	cw := container.NewWriter(w, Magic)
	h := header{
		Version: codecVersion,
		Tool:    meta.Tool,
		Seed:    meta.Seed,
		Dropped: meta.Dropped,
		Series:  n,
	}
	if err := cw.JSON(container.HeaderTag, h); err != nil {
		return err
	}
	var payload []byte
	for i := range n {
		payload = series(i, payload[:0])
		if err := cw.Section(secSeries, payload); err != nil {
			return err
		}
	}
	if err := cw.JSON(container.TrailerTag, trailer{Series: n}); err != nil {
		return err
	}
	return cw.Flush()
}

// WriteJSONL serializes the archive as one meta line followed by one
// line per series — greppable/jq-able, same canonical order.
func (a *Archive) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	metaLine := struct {
		Kind string `json:"kind"`
		Meta
		Series int `json:"series"`
	}{Kind: "hist_meta", Meta: a.Meta, Series: len(a.Series)}
	if err := enc.Encode(metaLine); err != nil {
		return err
	}
	for _, s := range a.Series {
		line := struct {
			Kind string `json:"kind"`
			Series
		}{Kind: "series", Series: s}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendSeries appends one 'S' payload to buf: uvarint-prefixed JSON
// descriptor, then fixed-width samples (int64 t_ns, float64 bits), all
// little-endian.
func appendSeries(buf []byte, s Series) []byte {
	desc, err := json.Marshal(seriesDesc{
		Name:    s.Name,
		Labels:  s.Labels,
		Type:    s.Type,
		Total:   s.Total,
		Samples: len(s.Samples),
	})
	if err != nil {
		// Marshalling plain strings and numbers cannot fail.
		panic(fmt.Sprintf("hist: encode series descriptor: %v", err))
	}
	buf = slices.Grow(buf, binary.MaxVarintLen64+len(desc)+16*len(s.Samples))
	buf = binary.AppendUvarint(buf, uint64(len(desc)))
	buf = append(buf, desc...)
	for _, sm := range s.Samples {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(sm.T.Nanoseconds()))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(sm.V))
	}
	return buf
}

func decodeSeries(payload []byte) (Series, error) {
	descLen, n := binary.Uvarint(payload)
	if n <= 0 || descLen > uint64(len(payload)-n) {
		return Series{}, errors.New("corrupt series descriptor length")
	}
	var desc seriesDesc
	if err := json.Unmarshal(payload[n:n+int(descLen)], &desc); err != nil {
		return Series{}, fmt.Errorf("series descriptor: %w", err)
	}
	rest := payload[n+int(descLen):]
	// The count is untrusted: compare it with what the payload holds
	// instead of multiplying it, so a huge one can neither wrap nor reach make.
	if len(rest)%16 != 0 || desc.Samples != len(rest)/16 {
		return Series{}, fmt.Errorf("series %s: %d samples do not fill a %d-byte payload",
			desc.Name, desc.Samples, len(rest))
	}
	s := Series{
		Name:    desc.Name,
		Labels:  desc.Labels,
		Type:    desc.Type,
		Total:   desc.Total,
		Samples: make([]obs.Sample, desc.Samples),
	}
	for i := range s.Samples {
		s.Samples[i] = obs.Sample{
			T: time.Duration(int64(binary.LittleEndian.Uint64(rest[16*i:]))),
			V: math.Float64frombits(binary.LittleEndian.Uint64(rest[16*i+8:])),
		}
	}
	return s, nil
}

// ReadArchive parses a binary history artifact: the header, one
// section per distinct series, and the trailer (a missing one means a
// truncated write), both counting the series the body holds.
func ReadArchive(r io.Reader) (*Archive, error) {
	a := &Archive{}
	keys := make(map[string]bool)
	hdr, tr, err := container.ReadEnvelope(r, Magic, func(tag byte, payload []byte) error {
		if tag != secSeries {
			return fmt.Errorf("unknown section type %q", tag)
		}
		s, err := decodeSeries(payload)
		if err != nil {
			return err
		}
		key := s.Key()
		if keys[key] {
			return fmt.Errorf("series %s appears twice", key)
		}
		keys[key] = true
		a.Series = append(a.Series, s)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("hist: %w", err)
	}
	var h header
	if err := json.Unmarshal(hdr, &h); err != nil {
		return nil, fmt.Errorf("hist: header: %w", err)
	}
	if h.Version != codecVersion {
		return nil, fmt.Errorf("hist: unsupported version %d", h.Version)
	}
	a.Meta = Meta{Tool: h.Tool, Seed: h.Seed, Dropped: h.Dropped}
	var t trailer
	if err := json.Unmarshal(tr, &t); err != nil {
		return nil, fmt.Errorf("hist: trailer: %w", err)
	}
	if h.Series != len(a.Series) || t.Series != len(a.Series) {
		return nil, fmt.Errorf("hist: header says %d series and trailer %d, read %d", h.Series, t.Series, len(a.Series))
	}
	return a, nil
}
