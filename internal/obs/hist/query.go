package hist

// The query engine: range select over the canonical cross-shard merge,
// with point-wise ops (raw, delta, rate) and window aggregations (min,
// max, avg, last, quantile, count). /queryz in obs/serve and the
// rwc-top dashboard sit directly on Query; the alert engine's windowed
// burn-rate sources use the registry-level Window handles instead (they
// are scoped to one fan-out child's samples).

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Ops accepted by Query.Op.
const (
	OpRaw      = "raw"   // samples as recorded (default)
	OpDelta    = "delta" // v[i] - v[i-1] within the selected range
	OpRate     = "rate"  // delta per second of sim time
	OpMin      = "min"   // single-point window aggregations ↓
	OpMax      = "max"
	OpAvg      = "avg"
	OpLast     = "last"
	OpCount    = "count"
	OpQuantile = "quantile" // Quantile field picks q
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
	// Quantile is the q for OpQuantile (0 < q <= 1).
	Quantile float64
	// Limit caps returned samples per series, keeping the newest
	// (0 = no cap). Aggregation ops apply before the cap (they return
	// one point).
	Limit int
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
	// Retained is how many raw samples the ring currently holds.
	Retained int `json:"retained"`
}

// Series lists every stored series in canonical (key) order.
func (st *Store) Series() []SeriesInfo {
	views := st.collect()
	out := make([]SeriesInfo, 0, len(views))
	for _, v := range views {
		out = append(out, SeriesInfo{
			Name:     v.name,
			Labels:   labelMap(v.labels),
			Type:     v.typ,
			Total:    v.total,
			Retained: len(v.samples),
		})
	}
	return out
}

// Query runs q and returns the matching series in canonical order.
func (st *Store) Query(q Query) ([]Result, error) {
	name, want, err := ParseSelector(q.Selector)
	if err != nil {
		return nil, err
	}
	if err := validOp(q.Op, q.Quantile); err != nil {
		return nil, err
	}
	var out []Result
	for _, v := range st.collect() {
		if v.name != name || !labelsMatch(v.labels, want) {
			continue
		}
		samples := sliceRange(v.samples, q.FromNs, q.ToNs)
		samples, err := applyOp(q.Op, q.Quantile, samples)
		if err != nil {
			return nil, err
		}
		if q.Limit > 0 && len(samples) > q.Limit {
			samples = samples[len(samples)-q.Limit:]
		}
		out = append(out, Result{
			Name:    v.name,
			Labels:  labelMap(v.labels),
			Type:    v.typ,
			Samples: samples,
			Total:   v.total,
		})
	}
	return out, nil
}

// ParseSelector splits `name` or `name{k="v",k2="v2"}` into the metric
// name and required label values.
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
	body := sel[open+1 : len(sel)-1]
	want := make(map[string]string)
	for _, part := range splitLabelList(body) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return "", nil, fmt.Errorf("hist: selector %q: matcher %q missing '='", sel, part)
		}
		key := strings.TrimSpace(part[:eq])
		val := strings.TrimSpace(part[eq+1:])
		if len(val) < 2 || val[0] != '"' || val[len(val)-1] != '"' {
			return "", nil, fmt.Errorf("hist: selector %q: value for %q must be double-quoted", sel, key)
		}
		want[key] = val[1 : len(val)-1]
	}
	return name, want, nil
}

// splitLabelList splits on commas outside double quotes.
func splitLabelList(body string) []string {
	var parts []string
	start := 0
	inQuote := false
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				parts = append(parts, body[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, body[start:])
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
// unbounded. Samples are sorted by T, so binary search bounds the copy.
func sliceRange(samples []obs.Sample, fromNs, toNs int64) []obs.Sample {
	lo := sort.Search(len(samples), func(i int) bool { return samples[i].T.Nanoseconds() >= fromNs })
	hi := len(samples)
	if toNs >= 0 {
		hi = sort.Search(len(samples), func(i int) bool { return samples[i].T.Nanoseconds() > toNs })
	}
	if lo >= hi {
		return []obs.Sample{}
	}
	return append([]obs.Sample(nil), samples[lo:hi]...)
}

func validOp(op string, q float64) error {
	switch op {
	case "", OpRaw, OpDelta, OpRate, OpMin, OpMax, OpAvg, OpLast, OpCount:
		return nil
	case OpQuantile:
		if q <= 0 || q > 1 {
			return fmt.Errorf("hist: quantile %v out of (0,1]", q)
		}
		return nil
	default:
		return fmt.Errorf("hist: unknown op %q", op)
	}
}

// applyOp transforms the selected samples. Aggregations return one
// point stamped with the window's last sample time.
func applyOp(op string, q float64, samples []obs.Sample) ([]obs.Sample, error) {
	switch op {
	case "", OpRaw:
		return samples, nil
	case OpDelta, OpRate:
		if len(samples) < 2 {
			return []obs.Sample{}, nil
		}
		out := make([]obs.Sample, 0, len(samples)-1)
		for i := 1; i < len(samples); i++ {
			d := samples[i].V - samples[i-1].V
			if op == OpRate {
				dt := (samples[i].T - samples[i-1].T).Seconds()
				if dt <= 0 {
					continue
				}
				d /= dt
			}
			out = append(out, obs.Sample{T: samples[i].T, V: d})
		}
		return out, nil
	case OpCount:
		if len(samples) == 0 {
			return []obs.Sample{}, nil
		}
		return []obs.Sample{{T: samples[len(samples)-1].T, V: float64(len(samples))}}, nil
	case OpMin, OpMax, OpAvg, OpLast, OpQuantile:
		if len(samples) == 0 {
			return []obs.Sample{}, nil
		}
		last := samples[len(samples)-1]
		var v float64
		switch op {
		case OpMin:
			v = math.Inf(1)
			for _, s := range samples {
				v = math.Min(v, s.V)
			}
		case OpMax:
			v = math.Inf(-1)
			for _, s := range samples {
				v = math.Max(v, s.V)
			}
		case OpAvg:
			for _, s := range samples {
				v += s.V
			}
			v /= float64(len(samples))
		case OpLast:
			v = last.V
		case OpQuantile:
			v = QuantileOf(samples, q)
		}
		return []obs.Sample{{T: last.T, V: v}}, nil
	}
	return nil, fmt.Errorf("hist: unknown op %q", op)
}

// QuantileOf returns the q-quantile of the sample values
// (nearest-rank on a sorted copy). Exported for the alert engine's
// windowed sources and rwc-top summaries.
func QuantileOf(samples []obs.Sample, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	vals := make([]float64, len(samples))
	for i, s := range samples {
		vals[i] = s.V
	}
	sort.Float64s(vals)
	idx := int(math.Ceil(q*float64(len(vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	return vals[idx]
}
