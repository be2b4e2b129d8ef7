package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file implements the metrics registry: Prometheus-shaped
// counters, gauges, and fixed-bucket histograms with deterministic
// snapshot ordering (families sorted by name, series by label
// signature), exposable as Prometheus text format and as JSON.

// Label is one name="value" dimension on a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label at call sites.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metric type names (also the Prometheus TYPE line values).
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is the shared storage behind every metric kind: a float64
// carried as atomic bits, plus histogram state when buckets are set.
type series struct {
	labels []Label
	bits   atomic.Uint64 // counter/gauge value, or histogram sum
	count  atomic.Uint64 // histogram observation count
	// bucketCounts[i] counts observations ≤ upper[i]; a final implicit
	// +Inf bucket is count.
	bucketCounts []atomic.Uint64
}

// addFloat atomically adds v to the float64 carried in bits and
// returns the new value (the history sink records running totals).
func (s *series) addFloat(v float64) float64 {
	for {
		old := s.bits.Load()
		next := math.Float64frombits(old) + v
		if s.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return next
		}
	}
}

func (s *series) load() float64 { return math.Float64frombits(s.bits.Load()) }

// family groups every series of one metric name.
type family struct {
	name, help, typ string
	upper           []float64 // histogram bucket upper bounds
	series          map[string]*series
}

// Registry holds metric families. All methods are safe for concurrent
// use and safe on a nil receiver (returning nil metrics whose methods
// are in turn nil-safe), so a disabled registry costs a nil check.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	// hist is the optional history sink (see history.go); nil keeps
	// every wrapper's handle nil, so history off is one nil check on
	// the hot path.
	hist HistorySink
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelSignature serializes labels into the canonical ordering used
// for series identity and snapshot sorting.
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString("=\"")
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// sortedLabels returns a canonically ordered copy.
func sortedLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// getSeries registers the family on first use and returns the series
// for the label set. Registering the same name with a different type
// panics: that is a programming error no run should paper over.
func (r *Registry) getSeries(name, help, typ string, upper []float64, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, upper: upper, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	sig := labelSignature(labels)
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: sortedLabels(labels)}
		if typ == typeHistogram {
			s.bucketCounts = make([]atomic.Uint64, len(f.upper))
		}
		f.series[sig] = s
	}
	return s
}

// Counter is a monotonically increasing metric.
type Counter struct {
	s *series
	h HistorySeries
}

// Counter registers (or fetches) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := r.getSeries(name, help, typeCounter, nil, labels)
	return &Counter{s: s, h: r.histSeries(name, s.labels, typeCounter)}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (negative deltas are ignored: counters only go up).
func (c *Counter) Add(v float64) {
	if c == nil || c.s == nil || v < 0 {
		return
	}
	total := c.s.addFloat(v)
	if c.h != nil {
		c.h.Append(total)
	}
}

// Value reads the current total (0 when disabled).
func (c *Counter) Value() float64 {
	if c == nil || c.s == nil {
		return 0
	}
	return c.s.load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	s *series
	h HistorySeries
}

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := r.getSeries(name, help, typeGauge, nil, labels)
	return &Gauge{s: s, h: r.histSeries(name, s.labels, typeGauge)}
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil || g.s == nil {
		return
	}
	g.s.bits.Store(math.Float64bits(v))
	if g.h != nil {
		g.h.Append(v)
	}
}

// Add adds v (may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil || g.s == nil {
		return
	}
	total := g.s.addFloat(v)
	if g.h != nil {
		g.h.Append(total)
	}
}

// Value reads the current value (0 when disabled).
func (g *Gauge) Value() float64 {
	if g == nil || g.s == nil {
		return 0
	}
	return g.s.load()
}

// Histogram counts observations into fixed buckets.
type Histogram struct {
	s *series
	h HistorySeries
	// bounds mirrors the family's immutable upper bounds so Observe
	// never touches the registry lock.
	bounds []float64
}

// DurationBuckets is a general-purpose latency bucket ladder in
// seconds (1 ms … ~100 s, roughly ×3 steps).
var DurationBuckets = []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100}

// Histogram registers (or fetches) a histogram series with the given
// upper bounds (which must be sorted ascending; a +Inf bucket is
// implicit). The first registration fixes the buckets for the family.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly ascending", name))
		}
	}
	upper := append([]float64(nil), buckets...)
	s := r.getSeries(name, help, typeHistogram, upper, labels)
	r.mu.Lock()
	bounds := r.families[name].upper
	r.mu.Unlock()
	return &Histogram{s: s, h: r.histSeries(name, s.labels, typeHistogram), bounds: bounds}
}

// Observe records one value. Buckets are stored per-bucket and made
// cumulative at exposition. The history sink receives the raw observed
// value, so quantile-over-window queries work from true samples rather
// than bucket bounds.
func (h *Histogram) Observe(v float64) {
	if h == nil || h.s == nil {
		return
	}
	h.s.count.Add(1)
	h.s.addFloat(v)
	for i, ub := range h.bounds {
		if v <= ub {
			h.s.bucketCounts[i].Add(1)
			break
		}
	}
	if h.h != nil {
		h.h.Append(v)
	}
}

// Sum returns the sum of observations (0 when disabled).
func (h *Histogram) Sum() float64 {
	if h == nil || h.s == nil {
		return 0
	}
	return h.s.load()
}

// Count returns the observation count (0 when disabled).
func (h *Histogram) Count() uint64 {
	if h == nil || h.s == nil {
		return 0
	}
	return h.s.count.Load()
}

// SeriesSnapshot is one series in a deterministic snapshot.
type SeriesSnapshot struct {
	Name   string  `json:"name"`
	Type   string  `json:"type"`
	Labels []Label `json:"labels,omitempty"`
	// Value is the counter total or gauge value (histograms use Sum).
	Value float64 `json:"value"`
	// Histogram-only fields.
	Sum     float64   `json:"sum,omitempty"`
	Count   uint64    `json:"count,omitempty"`
	Upper   []float64 `json:"upper,omitempty"`
	Buckets []uint64  `json:"buckets,omitempty"`
}

// Snapshot returns every series, sorted by metric name then label
// signature — the stable ordering every exposition shares.
func (r *Registry) Snapshot() []SeriesSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return r.SnapshotFamilies(names...)
}

// SnapshotFamilies is Snapshot restricted to the named families, in the
// order given (series by label signature within each); a name nothing
// has registered contributes nothing. A per-round reader — the alert
// engine — pays for the families its rules name, not for the registry.
func (r *Registry) SnapshotFamilies(names ...string) []SeriesSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []SeriesSnapshot
	for _, name := range names {
		f := r.families[name]
		if f == nil {
			continue
		}
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			s := f.series[sig]
			snap := SeriesSnapshot{Name: name, Type: f.typ, Labels: s.labels}
			switch f.typ {
			case typeHistogram:
				snap.Sum = s.load()
				snap.Count = s.count.Load()
				snap.Upper = f.upper
				snap.Buckets = make([]uint64, len(s.bucketCounts))
				for i := range s.bucketCounts {
					snap.Buckets[i] = s.bucketCounts[i].Load()
				}
				snap.Value = snap.Sum
			default:
				snap.Value = s.load()
			}
			out = append(out, snap)
		}
	}
	return out
}

// Totals flattens the snapshot into "name{labels}" → value for the
// manifest. Histograms contribute _sum and _count entries.
func (r *Registry) Totals() map[string]float64 {
	snaps := r.Snapshot()
	if snaps == nil {
		return nil
	}
	out := make(map[string]float64, len(snaps))
	for _, s := range snaps {
		key := s.Name + promLabels(s.Labels)
		if s.Type == typeHistogram {
			out[key+"_sum"] = s.Sum
			out[key+"_count"] = float64(s.Count)
			continue
		}
		out[key] = s.Value
	}
	return out
}

// formatValue renders a float the same way on every run.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabelValue escapes a label value per the Prometheus text
// exposition spec: backslash, double quote, and line feed become \\,
// \", and \n. Every other byte passes through verbatim (the spec
// allows arbitrary UTF-8), so hostile values can never break out of
// the quoted position or smuggle extra series into a scrape.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// promLabels renders {k="v",…} or "" for the empty set, with values
// escaped per the exposition spec (see escapeLabelValue).
func promLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString("=\"")
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// withExtra appends one more label pair to a rendered set (for
// histogram le labels).
func withExtra(labels []Label, key, value string) string {
	ls := append(append([]Label(nil), labels...), Label{Key: key, Value: value})
	return promLabels(ls)
}

// WritePrometheus writes the registry in Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers, families sorted by name,
// series sorted by label signature, histogram buckets cumulative with
// a +Inf bucket. Output is byte-identical across identical runs.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writePrometheus(w, nil)
}

// WritePrometheusPrefix writes only the families whose name starts
// with prefix, in the same exposition format. The serve layer uses it
// to publish the SLI registry's rwc_sli_* families on a shared scrape
// without leaking that registry's internal families (the alert
// engine's alerts_* bookkeeping) into a namespace another registry
// already owns.
func (r *Registry) WritePrometheusPrefix(w io.Writer, prefix string) error {
	return r.writePrometheus(w, func(name string) bool { return strings.HasPrefix(name, prefix) })
}

func (r *Registry) writePrometheus(w io.Writer, keep func(name string) bool) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		if keep != nil && !keep(name) {
			continue
		}
		names = append(names, name)
	}
	r.mu.Unlock()
	sort.Strings(names)

	snaps := r.Snapshot()
	byName := map[string][]SeriesSnapshot{}
	for _, s := range snaps {
		byName[s.Name] = append(byName[s.Name], s)
	}
	for _, name := range names {
		r.mu.Lock()
		f := r.families[name]
		help, typ := f.help, f.typ
		r.mu.Unlock()
		if help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, sanitizeHelp(help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ); err != nil {
			return err
		}
		for _, s := range byName[name] {
			if typ == typeHistogram {
				var cum uint64
				for i, ub := range s.Upper {
					cum += s.Buckets[i]
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withExtra(s.Labels, "le", formatValue(ub)), cum); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withExtra(s.Labels, "le", "+Inf"), s.Count); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, promLabels(s.Labels), formatValue(s.Sum)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", name, promLabels(s.Labels), s.Count); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", name, promLabels(s.Labels), formatValue(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// sanitizeHelp keeps HELP single-line.
func sanitizeHelp(h string) string {
	h = strings.ReplaceAll(h, "\\", "\\\\")
	return strings.ReplaceAll(h, "\n", "\\n")
}
