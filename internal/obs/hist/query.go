package hist

// The query engine: range select over the canonical cross-shard merge,
// returning the samples as recorded or one window aggregation (min,
// last). /queryz in obs/serve and the rwc-top dashboard sit directly on
// Query.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/obs"
)

// Ops accepted by Query.Op.
const (
	OpRaw  = "raw"  // samples as recorded (default)
	OpMin  = "min"  // one point: the window's least value
	OpLast = "last" // one point: the window's newest value
)

// Query selects a sample range from one or more series.
type Query struct {
	// Selector matches series: a bare metric name matches every label
	// set; `name{k="v",...}` requires the listed labels to be present
	// with those values (unlisted labels are unconstrained).
	Selector string
	// FromNs/ToNs bound sample timestamps to [FromNs, ToNs], both
	// inclusive; ToNs < 0 means unbounded.
	FromNs int64
	ToNs   int64
	// Op transforms the selected samples (see Op constants; "" = raw).
	Op string
}

// Result is one matched series' answer.
type Result struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Type    string            `json:"type"`
	Samples []obs.Sample      `json:"samples"`
	// Total is the series' lifetime append count (samples may have aged
	// out of retention).
	Total uint64 `json:"total"`
}

// SeriesInfo is one /seriesz listing entry.
type SeriesInfo struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Type   string            `json:"type"`
	Total  uint64            `json:"total"`
	// Retained is how many raw samples the series currently holds.
	Retained int `json:"retained"`
}

// Series lists every stored series in canonical (key) order. It reads
// the buckets' counts and decodes no samples.
func (st *Store) Series() []SeriesInfo {
	if st == nil {
		return []SeriesInfo{}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	groups := st.group("")
	out := make([]SeriesInfo, 0, len(groups))
	for _, g := range groups {
		info := SeriesInfo{Name: g[0].name, Labels: labelMap(g[0].labels), Type: g[0].typ}
		for _, b := range g {
			info.Total += b.total
			info.Retained += b.kept
		}
		out = append(out, info)
	}
	return out
}

// Query runs q and returns the matching series in canonical order.
// Only the series the selector names are merged.
func (st *Store) Query(q Query) ([]Result, error) {
	name, want, err := ParseSelector(q.Selector)
	if err != nil {
		return nil, err
	}
	if err := validOp(q.Op); err != nil {
		return nil, err
	}
	var out []Result
	for _, v := range st.merge(name, want) {
		out = append(out, Result{
			Name:    v.name,
			Labels:  labelMap(v.labels),
			Type:    v.typ,
			Samples: applyOp(q.Op, sliceRange(v.samples, q.FromNs, q.ToNs)),
			Total:   v.total,
		})
	}
	return out, nil
}

// ParseSelector splits `name` or `name{k="v",k2="v2"}` into the metric
// name and required label values. Values are Go-quoted strings, read
// with strconv.Unquote, so Key's rendering of any series is a selector
// that returns it.
func ParseSelector(sel string) (string, map[string]string, error) {
	sel = strings.TrimSpace(sel)
	if sel == "" {
		return "", nil, errors.New("hist: empty selector")
	}
	open := strings.IndexByte(sel, '{')
	if open < 0 {
		return sel, nil, nil
	}
	if !strings.HasSuffix(sel, "}") {
		return "", nil, fmt.Errorf("hist: selector %q: missing closing brace", sel)
	}
	name := strings.TrimSpace(sel[:open])
	if name == "" {
		return "", nil, fmt.Errorf("hist: selector %q: empty metric name", sel)
	}
	want := make(map[string]string)
	rest := sel[open+1 : len(sel)-1]
	for {
		rest = strings.TrimLeftFunc(rest, unicode.IsSpace)
		if rest == "" {
			return name, want, nil
		}
		if rest[0] == ',' { // a separator, or an empty matcher
			rest = rest[1:]
			continue
		}
		eq := strings.IndexByte(rest, '=')
		if comma := strings.IndexByte(rest, ','); eq < 0 || (comma >= 0 && comma < eq) {
			if comma >= 0 {
				rest = rest[:comma]
			}
			return "", nil, fmt.Errorf("hist: selector %q: matcher %q missing '='", sel, strings.TrimSpace(rest))
		}
		key := strings.TrimSpace(rest[:eq])
		rest = strings.TrimLeftFunc(rest[eq+1:], unicode.IsSpace)
		quoted, err := strconv.QuotedPrefix(rest)
		if err != nil || quoted[0] != '"' {
			return "", nil, fmt.Errorf("hist: selector %q: value for %q must be double-quoted", sel, key)
		}
		want[key], _ = strconv.Unquote(quoted) // QuotedPrefix accepted it
		rest = strings.TrimLeftFunc(rest[len(quoted):], unicode.IsSpace)
		if rest != "" && rest[0] != ',' {
			return "", nil, fmt.Errorf("hist: selector %q: want ',' or '}' after the value for %q", sel, key)
		}
	}
}

func labelsMatch(have []obs.Label, want map[string]string) bool {
	for k, v := range want {
		found := false
		for _, l := range have {
			if l.Key == k {
				found = l.Value == v
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func labelMap(labels []obs.Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// sliceRange keeps samples with T in [fromNs, toNs]; toNs < 0 is
// unbounded. Samples are sorted by T, so binary search bounds the
// slice; it shares the caller's freshly merged buffer.
func sliceRange(samples []obs.Sample, fromNs, toNs int64) []obs.Sample {
	lo := sort.Search(len(samples), func(i int) bool { return samples[i].T.Nanoseconds() >= fromNs })
	hi := len(samples)
	if toNs >= 0 {
		hi = sort.Search(len(samples), func(i int) bool { return samples[i].T.Nanoseconds() > toNs })
	}
	if lo >= hi {
		return []obs.Sample{}
	}
	return samples[lo:hi:hi]
}

func validOp(op string) error {
	switch op {
	case "", OpRaw, OpMin, OpLast:
		return nil
	default:
		return fmt.Errorf("hist: unknown op %q", op)
	}
}

// applyOp transforms the selected samples of a valid op. Aggregations
// return one point stamped with the window's last sample time.
func applyOp(op string, samples []obs.Sample) []obs.Sample {
	if op == "" || op == OpRaw || len(samples) == 0 {
		return samples
	}
	last := samples[len(samples)-1]
	v := last.V
	if op == OpMin {
		for _, s := range samples {
			v = math.Min(v, s.V)
		}
	}
	return []obs.Sample{{T: last.T, V: v}}
}
