package hist

// Archive is the serialization-facing view of a store: the canonical
// cross-shard merge frozen into plain values, with the run identity the
// artifact header carries. WriteBinary/WriteJSONL (codec.go) operate on
// archives. The archive carries no shard structure, so two stores with
// different fan-out topologies serialize identically when their merged
// samples agree.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Meta identifies the run that produced an archive.
type Meta struct {
	Tool string `json:"tool,omitempty"`
	Seed uint64 `json:"seed"`
	// Dropped is how many series the cardinality budget denied.
	Dropped int `json:"dropped,omitempty"`
}

// Series is one series' frozen history.
type Series struct {
	Name    string       `json:"name"`
	Labels  []obs.Label  `json:"labels,omitempty"`
	Type    string       `json:"type"`
	Total   uint64       `json:"total"`
	Samples []obs.Sample `json:"samples"`
}

// Key renders the series' canonical identity.
func (s Series) Key() string { return Key(s.Name, s.Labels) }

// Archive is a frozen store: series in canonical key order.
type Archive struct {
	Meta   Meta
	Series []Series
}

// Archive freezes the store's current contents.
func (st *Store) Archive() *Archive {
	a := &Archive{}
	if st == nil {
		return a
	}
	a.Meta = Meta{Tool: st.opt.Tool, Seed: st.opt.Seed, Dropped: st.Dropped()}
	for _, v := range st.merge("", nil) {
		a.Series = append(a.Series, Series{
			Name:    v.name,
			Labels:  v.labels,
			Type:    v.typ,
			Total:   v.total,
			Samples: v.samples,
		})
	}
	return a
}

// Filter returns a copy keeping only series for which keep returns
// true (key order is preserved).
func (a *Archive) Filter(keep func(Series) bool) *Archive {
	out := &Archive{Meta: a.Meta}
	for _, s := range a.Series {
		if keep(s) {
			out.Series = append(out.Series, s)
		}
	}
	return out
}

// Key renders a series identity canonically: name alone when
// unlabeled, else name{k="v",...} with keys sorted.
func Key(name string, labels []obs.Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := canonLabels(labels)
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Key, l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

// DiffEntry is one series-level divergence between two archives.
type DiffEntry struct {
	Key string `json:"key"`
	// InA/InB report presence; both true means the samples differ.
	InA bool `json:"in_a"`
	InB bool `json:"in_b"`
	// FirstDivergeNs is the sim time of the first differing sample
	// (valid when both sides have the series; -1 when the divergence is
	// a missing tail with equal prefixes).
	FirstDivergeNs int64 `json:"first_diverge_ns,omitempty"`
	// Detail is a human-readable account of the first divergence.
	Detail string `json:"detail,omitempty"`
}

func (e DiffEntry) String() string {
	switch {
	case e.InA && !e.InB:
		return "- only in a: " + e.Key
	case !e.InA && e.InB:
		return "+ only in b: " + e.Key
	default:
		return "~ " + e.Key + ": " + e.Detail
	}
}

// Diff compares two archives series-by-series, reporting each missing
// series and, for shared series, the first diverging (sim-time, value)
// pair. Entries come back in canonical key order; nil means the
// archives agree.
func Diff(a, b *Archive) []DiffEntry {
	byKey := func(ar *Archive) map[string]Series {
		m := make(map[string]Series, len(ar.Series))
		for _, s := range ar.Series {
			m[s.Key()] = s
		}
		return m
	}
	am, bm := byKey(a), byKey(b)
	keys := make([]string, 0, len(am)+len(bm))
	for k := range am {
		keys = append(keys, k)
	}
	for k := range bm {
		if _, ok := am[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	var out []DiffEntry
	for _, k := range keys {
		sa, inA := am[k]
		sb, inB := bm[k]
		if !inA || !inB {
			out = append(out, DiffEntry{Key: k, InA: inA, InB: inB, FirstDivergeNs: -1})
			continue
		}
		if e, diverged := diffSeries(k, sa, sb); diverged {
			out = append(out, e)
		}
	}
	return out
}

func diffSeries(key string, a, b Series) (DiffEntry, bool) {
	e := DiffEntry{Key: key, InA: true, InB: true, FirstDivergeNs: -1}
	n := len(a.Samples)
	if len(b.Samples) < n {
		n = len(b.Samples)
	}
	for i := 0; i < n; i++ {
		sa, sb := a.Samples[i], b.Samples[i]
		// Byte-identity is the contract, so exact comparison is the
		// point here — approximate equality would hide real divergence.
		if sa.T != sb.T || sa.V != sb.V { //nolint:nofloateq // exact byte-identity check
			e.FirstDivergeNs = sa.T.Nanoseconds()
			if sb.T.Nanoseconds() < e.FirstDivergeNs {
				e.FirstDivergeNs = sb.T.Nanoseconds()
			}
			e.Detail = fmt.Sprintf("sample %d: a=(t=%dns v=%v) b=(t=%dns v=%v)", i, sa.T.Nanoseconds(), sa.V, sb.T.Nanoseconds(), sb.V)
			return e, true
		}
	}
	if len(a.Samples) != len(b.Samples) {
		e.Detail = fmt.Sprintf("sample count: a=%d b=%d (equal prefix)", len(a.Samples), len(b.Samples))
		return e, true
	}
	if a.Total != b.Total {
		e.Detail = fmt.Sprintf("lifetime total: a=%d b=%d", a.Total, b.Total)
		return e, true
	}
	if a.Type != b.Type {
		e.Detail = fmt.Sprintf("type: a=%s b=%s", a.Type, b.Type)
		return e, true
	}
	return e, false
}
