package hist

// On-disk history artifacts: an internal/obs/container file (magic,
// then tagged length-prefixed sections) with these sections.
//
//	magic   "RWCHIST1\n"
//	'H'     header JSON: version, tool, seed, dropped, series count
//	'S'     one per series, in canonical key order: a JSON descriptor
//	        (name, labels, type, total) followed by fixed-width
//	        little-endian samples and downsampled blocks
//	'T'     trailer JSON: series count again (truncation guard)
//
// Sections with any other tag are skipped, so a later writer can add
// one without breaking this reader.
//
// Everything serialized is already canonical (Archive freezes the
// cross-shard merge, encoding/json emits struct fields in declaration
// order), so same-seed runs write byte-identical files at any -workers
// count — CI compares them with cmp(1).

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/container"
)

// Magic identifies a binary history artifact.
const Magic = "RWCHIST1\n"

const (
	secHeader  = 'H'
	secSeries  = 'S'
	secTrailer = 'T'

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
// and block arrays follow it inside the same section payload.
type seriesDesc struct {
	Name    string      `json:"name"`
	Labels  []obs.Label `json:"labels,omitempty"`
	Type    string      `json:"type"`
	Total   uint64      `json:"total"`
	Samples int         `json:"samples"`
	Blocks  int         `json:"blocks,omitempty"`
}

// WriteBinary serializes the archive canonically.
func (a *Archive) WriteBinary(w io.Writer) error {
	cw := container.NewWriter(w, Magic)
	h := header{
		Version: codecVersion,
		Tool:    a.Meta.Tool,
		Seed:    a.Meta.Seed,
		Dropped: a.Meta.Dropped,
		Series:  len(a.Series),
	}
	if err := cw.JSON(secHeader, h); err != nil {
		return err
	}
	for _, s := range a.Series {
		if err := cw.Section(secSeries, encodeSeries(s)); err != nil {
			return err
		}
	}
	if err := cw.JSON(secTrailer, trailer{Series: len(a.Series)}); err != nil {
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

// encodeSeries renders one 'S' payload: uvarint-prefixed JSON
// descriptor, then fixed-width samples (int64 t_ns, float64 bits) and
// blocks (7 × 8 bytes), all little-endian.
func encodeSeries(s Series) []byte {
	desc, err := json.Marshal(seriesDesc{
		Name:    s.Name,
		Labels:  s.Labels,
		Type:    s.Type,
		Total:   s.Total,
		Samples: len(s.Samples),
		Blocks:  len(s.Blocks),
	})
	if err != nil {
		// Marshalling plain strings and numbers cannot fail.
		panic(fmt.Sprintf("hist: encode series descriptor: %v", err))
	}
	buf := make([]byte, 0, len(desc)+10+16*len(s.Samples)+56*len(s.Blocks))
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(desc)))
	buf = append(buf, lenBuf[:n]...)
	buf = append(buf, desc...)
	for _, sm := range s.Samples {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(sm.T.Nanoseconds()))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(sm.V))
	}
	for _, b := range s.Blocks {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(b.StartNs))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(b.EndNs))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(b.Min))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(b.Max))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(b.Mean))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(b.Last))
		buf = binary.LittleEndian.AppendUint64(buf, b.Count)
	}
	return buf
}

func decodeSeries(payload []byte) (Series, error) {
	descLen, n := binary.Uvarint(payload)
	if n <= 0 || descLen > uint64(len(payload)-n) {
		return Series{}, errors.New("hist: corrupt series descriptor length")
	}
	var desc seriesDesc
	if err := json.Unmarshal(payload[n:n+int(descLen)], &desc); err != nil {
		return Series{}, fmt.Errorf("hist: series descriptor: %w", err)
	}
	rest := payload[n+int(descLen):]
	// The counts are untrusted: bound each by what the payload could hold
	// before multiplying, so a huge one can neither wrap the sum nor reach make.
	if desc.Samples < 0 || desc.Samples > len(rest)/16 ||
		desc.Blocks < 0 || desc.Blocks > len(rest)/56 ||
		16*desc.Samples+56*desc.Blocks != len(rest) {
		return Series{}, fmt.Errorf("hist: series %s: %d samples and %d blocks do not fill a %d-byte payload",
			desc.Name, desc.Samples, desc.Blocks, len(rest))
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
	rest = rest[16*desc.Samples:]
	if desc.Blocks > 0 {
		s.Blocks = make([]Block, desc.Blocks)
		for i := range s.Blocks {
			off := 56 * i
			s.Blocks[i] = Block{
				StartNs: int64(binary.LittleEndian.Uint64(rest[off:])),
				EndNs:   int64(binary.LittleEndian.Uint64(rest[off+8:])),
				Min:     math.Float64frombits(binary.LittleEndian.Uint64(rest[off+16:])),
				Max:     math.Float64frombits(binary.LittleEndian.Uint64(rest[off+24:])),
				Mean:    math.Float64frombits(binary.LittleEndian.Uint64(rest[off+32:])),
				Last:    math.Float64frombits(binary.LittleEndian.Uint64(rest[off+40:])),
				Count:   binary.LittleEndian.Uint64(rest[off+48:]),
			}
		}
	}
	return s, nil
}

// ReadArchive parses a binary history artifact, requiring the header
// and trailer (a missing trailer means a truncated write).
func ReadArchive(r io.Reader) (*Archive, error) {
	cr, err := container.Open(r, Magic)
	if err != nil {
		return nil, fmt.Errorf("hist: %w", err)
	}
	a := &Archive{}
	var h header
	var t trailer
	sawHeader, sawTrailer := false, false
	for {
		tag, payload, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("hist: %w", err)
		}
		switch tag {
		case secHeader:
			if err := json.Unmarshal(payload, &h); err != nil {
				return nil, fmt.Errorf("hist: header: %w", err)
			}
			if h.Version != codecVersion {
				return nil, fmt.Errorf("hist: unsupported version %d", h.Version)
			}
			a.Meta = Meta{Tool: h.Tool, Seed: h.Seed, Dropped: h.Dropped}
			sawHeader = true
		case secSeries:
			s, err := decodeSeries(payload)
			if err != nil {
				return nil, err
			}
			a.Series = append(a.Series, s)
		case secTrailer:
			if err := json.Unmarshal(payload, &t); err != nil {
				return nil, fmt.Errorf("hist: trailer: %w", err)
			}
			sawTrailer = true
		default:
			// Skip unknown sections for forward compatibility.
		}
	}
	if !sawHeader {
		return nil, errors.New("hist: missing header section")
	}
	if !sawTrailer {
		return nil, errors.New("hist: missing trailer (truncated artifact?)")
	}
	if len(a.Series) != t.Series {
		return nil, fmt.Errorf("hist: trailer says %d series, read %d", t.Series, len(a.Series))
	}
	return a, nil
}
