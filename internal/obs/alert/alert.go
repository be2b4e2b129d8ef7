// Package alert is the deterministic alerting half of the live
// operations plane: a rule engine evaluated once per simulation round
// against metric-registry snapshots, turning the paper's operational
// signals (§2.3 SNR dips, capacity-flap churn, TE solver load) into
// alert.fire / alert.resolve trace events, alert metrics, and an
// end-of-run summary in the run manifest.
//
// Determinism is the design constraint that shapes everything here:
//
//   - Rules evaluate registry snapshots, which are deterministic for a
//     given seed, in sorted series order.
//   - Alert timestamps are *simulation* time (the tracer's injected
//     clock), never wall time — this package is on the nowalltime
//     lint deny-list like the rest of internal/obs.
//   - Therefore two same-seed runs fire the exact same alerts with the
//     exact same stamps, and the byte-identity guarantee over metrics
//     and trace artifacts extends to alerting.
//
// Like every obs sink, a nil *Engine is the disabled state: all
// methods are nil-receiver-safe.
package alert

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Op compares an observed value against a rule threshold.
type Op int

const (
	// OpAbove breaches when value >= Threshold.
	OpAbove Op = iota
	// OpBelow breaches when value <= Threshold.
	OpBelow
)

// String names the operator for trace attributes.
func (o Op) String() string {
	switch o {
	case OpAbove:
		return ">="
	case OpBelow:
		return "<="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Source selects what number a rule extracts from a matched series
// each evaluation.
type Source int

const (
	// SourceValue is the series value itself (gauge or counter total).
	SourceValue Source = iota
	// SourceDelta is the change since the previous evaluation — the
	// rate-of-change predicate, in units per round. The first
	// evaluation of a series records a baseline and never breaches.
	SourceDelta
	// SourceDipFromMax is the dip depth: the running maximum of the
	// series minus the current value. A series at its all-time high
	// reads 0; the §2.3 "SNR dip ≥ 3 dB" rule is OpAbove/Threshold 3
	// on this source.
	SourceDipFromMax
	// SourceHistP99 is the 99th-percentile estimate from a histogram
	// series' cumulative buckets (the upper bound of the bucket
	// containing the p99 rank; +Inf when the rank falls past the last
	// finite bucket). Non-histogram series never match.
	SourceHistP99
	// SourceBurnRate is the multi-window SLO burn rate evaluated
	// against the metrics-history store: the fraction of retained
	// samples violating the rule's SLO within each window, divided by
	// the error Budget, taking the minimum of the short and long
	// windows (both must burn — the standard guard against paging on a
	// single bad round that the long window would forgive, and against
	// a long-decayed incident the short window shows has ended).
	// Requires a history sink (Registry.SetHistory); without one the
	// rule never evaluates.
	SourceBurnRate
)

// String names the source for trace attributes.
func (s Source) String() string {
	switch s {
	case SourceValue:
		return "value"
	case SourceDelta:
		return "delta"
	case SourceDipFromMax:
		return "dip_from_max"
	case SourceHistP99:
		return "hist_p99"
	case SourceBurnRate:
		return "burn_rate"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Severity grades a rule.
type Severity string

const (
	SeverityWarning  Severity = "warning"
	SeverityCritical Severity = "critical"
)

// Rule is one alerting predicate over one metric family. Every series
// of the family is tracked independently (a per-policy gauge yields
// per-policy alert instances carrying that series' labels).
type Rule struct {
	// Name identifies the rule in events, metrics, and the manifest.
	Name string
	// Metric is the metric family the rule watches.
	Metric string
	// Source extracts the evaluated number from each matched series.
	Source Source
	// Op and Threshold define the breach predicate.
	Op        Op
	Threshold float64
	// Sustain is how many consecutive evaluations must breach before
	// the alert fires (default 1). The sustained-for-N predicate: a
	// one-round blip on a Sustain-3 rule never pages.
	Sustain int
	// Severity defaults to warning.
	Severity Severity
	// Help documents what an operator should do with the alert.
	Help string

	// The remaining fields apply to SourceBurnRate rules only. SLO and
	// SLOOp define what makes one sample "bad" (e.g. OpBelow 12.45 dB:
	// the §2.3 availability objective of never dipping ≥3 dB under the
	// engineered baseline); ShortWindow/LongWindow are the two
	// simulation-time windows; Budget is the tolerated bad fraction
	// (the error budget — burn rate 1 means "exactly on budget").
	// Op/Threshold then compare the min of the two windows' burn
	// rates, conventionally OpAbove with a threshold of a few ×.
	SLO         float64
	SLOOp       Op
	ShortWindow time.Duration
	LongWindow  time.Duration
	Budget      float64
}

// normalized fills defaults.
func (r Rule) normalized() Rule {
	if r.Sustain <= 0 {
		r.Sustain = 1
	}
	if r.Severity == "" {
		r.Severity = SeverityWarning
	}
	if r.Budget <= 0 {
		r.Budget = 1
	}
	return r
}

// seriesState tracks one (rule, series) pair across evaluations.
type seriesState struct {
	labels    []obs.Label
	series    string // rendered label set, the stable identity
	prev      float64
	hasPrev   bool
	max       float64
	hasMax    bool
	hist      obs.HistorySeries // lazily resolved for burn-rate rules
	histOK    bool
	breach    int
	firing    bool
	fires     int
	resolves  int
	firstFire time.Duration
	lastFire  time.Duration
}

// Engine evaluates a rule set against an Obs bundle's registry. Create
// one per simulation run (state is cumulative across rounds).
type Engine struct {
	o     *obs.Obs
	rules []Rule
	state []map[string]*seriesState // parallel to rules, keyed by rendered series
	// order[i] is rule i's states in its family's snapshot order as of the
	// last evaluation. A registry never drops a series, so an unchanged
	// series count means the same series at the same positions, and only
	// a round in which one appeared renders labels to look states up.
	order [][]*seriesState
}

// NewEngine builds an engine emitting into o's sinks. A nil bundle or
// disabled metrics registry yields a nil engine (every method no-ops),
// so callers wire alerting unconditionally.
func NewEngine(o *obs.Obs, rules ...Rule) *Engine {
	if o == nil || o.Metrics == nil || len(rules) == 0 {
		return nil
	}
	e := &Engine{o: o, rules: make([]Rule, len(rules)), state: make([]map[string]*seriesState, len(rules)), order: make([][]*seriesState, len(rules))}
	for i, r := range rules {
		e.rules[i] = r.normalized()
		e.state[i] = make(map[string]*seriesState)
	}
	return e
}

// EvalRound runs every rule, in rule order, against a snapshot of the
// one family it names. Call it once per simulation round, after the
// round's metrics are recorded and after SetSimTime, so fire/resolve
// events carry the round's simulation timestamp.
func (e *Engine) EvalRound(round int) {
	if e == nil {
		return
	}
	for i := range e.rules {
		e.evalRule(i, round, e.o.Metrics.SnapshotFamilies(e.rules[i].Metric))
	}
}

// evalRule evaluates one rule over its family's series, which arrive
// sorted by label signature → deterministic.
func (e *Engine) evalRule(idx, round int, family []obs.SeriesSnapshot) {
	rule := e.rules[idx]
	if len(family) == 0 || (rule.Source == SourceHistP99) != (family[0].Type == "histogram") {
		return
	}
	if len(e.order[idx]) != len(family) {
		e.order[idx] = e.order[idx][:0]
		for _, snap := range family {
			key := renderLabels(snap.Labels)
			st, ok := e.state[idx][key]
			if !ok {
				st = &seriesState{labels: snap.Labels, series: key}
				e.state[idx][key] = st
			}
			e.order[idx] = append(e.order[idx], st)
		}
	}
	for i, snap := range family {
		st := e.order[idx][i]
		var value float64
		var ok bool
		if rule.Source == SourceBurnRate {
			value, ok = e.burnRate(rule, snap, st)
		} else {
			value, ok = extract(rule.Source, snap, st)
		}
		if !ok {
			continue
		}
		breach := (rule.Op == OpAbove && value >= rule.Threshold) ||
			(rule.Op == OpBelow && value <= rule.Threshold)
		if breach {
			st.breach++
		} else {
			st.breach = 0
		}
		switch {
		case !st.firing && st.breach >= rule.Sustain:
			st.firing = true
			st.fires++
			now := e.now()
			if st.fires == 1 {
				st.firstFire = now
			}
			st.lastFire = now
			e.o.Counter("alerts_fired_total", "Alert fire transitions, by rule.", //nolint:seriesname // cold: a fire transition, not a round
				obs.L("rule", rule.Name)).Inc()
			e.o.Gauge("alerts_active", "Alerts currently firing, by rule.", //nolint:seriesname // cold: a fire transition, not a round
				obs.L("rule", rule.Name)).Add(1)
			e.o.Event("alert.fire", e.eventAttrs(rule, st, value, round)...)
		case st.firing && !breach:
			st.firing = false
			st.resolves++
			e.o.Counter("alerts_resolved_total", "Alert resolve transitions, by rule.", //nolint:seriesname // cold: a resolve transition, not a round
				obs.L("rule", rule.Name)).Inc()
			e.o.Gauge("alerts_active", "Alerts currently firing, by rule.", //nolint:seriesname // cold: a resolve transition, not a round
				obs.L("rule", rule.Name)).Add(-1)
			e.o.Event("alert.resolve", e.eventAttrs(rule, st, value, round)...)
		}
	}
}

// extract computes the rule source value for one series, updating the
// series state (prev, running max). The bool is false when there is
// nothing to evaluate yet (first delta sample, empty histogram).
func extract(src Source, snap obs.SeriesSnapshot, st *seriesState) (float64, bool) {
	switch src {
	case SourceValue:
		return snap.Value, true
	case SourceDelta:
		v := snap.Value
		defer func() { st.prev, st.hasPrev = v, true }()
		if !st.hasPrev {
			return 0, false
		}
		return v - st.prev, true
	case SourceDipFromMax:
		if !st.hasMax || snap.Value > st.max {
			st.max, st.hasMax = snap.Value, true
		}
		return st.max - snap.Value, true
	case SourceHistP99:
		return histQuantile(snap, 0.99)
	default:
		return 0, false
	}
}

// burnRate evaluates a SourceBurnRate rule for one series: the min of
// the short- and long-window burn rates against the rule's SLO,
// reading the series' retained history. False (skip) when no history
// sink is attached or either window holds no samples yet — a burn-rate
// rule never breaches before both windows have data.
func (e *Engine) burnRate(rule Rule, snap obs.SeriesSnapshot, st *seriesState) (float64, bool) {
	if !st.histOK {
		// Resolve the series' history handle once. The engine's
		// registry and its history shard belong to the same fan-out
		// child, so the handle sees exactly this run's samples.
		if sink := e.o.Metrics.History(); sink != nil {
			st.hist = sink.Series(snap.Name, snap.Labels, snap.Type)
		}
		st.histOK = true
	}
	if st.hist == nil {
		return 0, false
	}
	now := e.now()
	short, ok := windowBurn(st.hist, rule, now, rule.ShortWindow)
	if !ok {
		return 0, false
	}
	long, ok := windowBurn(st.hist, rule, now, rule.LongWindow)
	if !ok {
		return 0, false
	}
	return math.Min(short, long), true
}

// windowBurn is one window's burn rate: the fraction of samples in
// (now-w, now] violating the SLO, divided by the error budget.
func windowBurn(h obs.HistorySeries, rule Rule, now, w time.Duration) (float64, bool) {
	samples := h.Window(now-w, now)
	if len(samples) == 0 {
		return 0, false
	}
	bad := 0
	for _, s := range samples {
		if (rule.SLOOp == OpAbove && s.V >= rule.SLO) ||
			(rule.SLOOp == OpBelow && s.V <= rule.SLO) {
			bad++
		}
	}
	return float64(bad) / float64(len(samples)) / rule.Budget, true
}

// histQuantile estimates a quantile from a snapshot's per-bucket
// counts: the upper bound of the bucket holding the quantile rank,
// +Inf past the last finite bucket. Deterministic and monotone — good
// enough for thresholding, exactly like PromQL's histogram_quantile
// bucket-bound semantics.
func histQuantile(snap obs.SeriesSnapshot, q float64) (float64, bool) {
	if snap.Count == 0 {
		return 0, false
	}
	rank := uint64(math.Ceil(q * float64(snap.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range snap.Buckets {
		cum += c
		if cum >= rank {
			return snap.Upper[i], true
		}
	}
	return math.Inf(1), true
}

// now reads the simulation clock (0 when absent).
func (e *Engine) now() time.Duration {
	if e.o == nil {
		return 0
	}
	return e.o.Clock.Now()
}

// eventAttrs builds the fire/resolve event annotation set.
func (e *Engine) eventAttrs(rule Rule, st *seriesState, value float64, round int) []obs.Attr {
	attrs := []obs.Attr{
		obs.A("rule", rule.Name),
		obs.A("severity", string(rule.Severity)),
		obs.A("metric", rule.Metric),
		obs.A("series", st.series),
		obs.A("source", rule.Source.String()),
		obs.A("value", value),
		obs.A("op", rule.Op.String()),
		obs.A("threshold", rule.Threshold),
		obs.A("round", round),
	}
	if rule.Source == SourceBurnRate {
		attrs = append(attrs,
			obs.A("slo", rule.SLO),
			obs.A("slo_op", rule.SLOOp.String()),
			obs.A("short_window_ns", rule.ShortWindow.Nanoseconds()),
			obs.A("long_window_ns", rule.LongWindow.Nanoseconds()),
			obs.A("budget", rule.Budget),
		)
	}
	return attrs
}

// Active returns the (rule, series) pairs currently firing, sorted by
// rule name then series.
func (e *Engine) Active() []obs.AlertRecord {
	if e == nil {
		return nil
	}
	var out []obs.AlertRecord
	e.eachState(func(rule Rule, st *seriesState) {
		if st.firing {
			out = append(out, e.record(rule, st))
		}
	})
	return out
}

// Summary returns every (rule, series) pair that fired at least once,
// sorted by rule name then series — the end-of-run alert summary.
func (e *Engine) Summary() []obs.AlertRecord {
	if e == nil {
		return nil
	}
	var out []obs.AlertRecord
	e.eachState(func(rule Rule, st *seriesState) {
		if st.fires > 0 {
			out = append(out, e.record(rule, st))
		}
	})
	return out
}

// Finish writes the summary into the manifest and logs still-active
// alerts. Call once at the end of the run (per policy child when
// fanning out; manifests merge in task order).
func (e *Engine) Finish() {
	if e == nil {
		return
	}
	for _, rec := range e.Summary() {
		e.o.Manifest.AddAlert(rec)
		if rec.ActiveAtEnd {
			e.o.Logger().Warn("alert still active at end of run",
				"rule", rec.Rule, "series", rec.Series, "severity", rec.Severity)
		}
	}
}

func (e *Engine) record(rule Rule, st *seriesState) obs.AlertRecord {
	return obs.AlertRecord{
		Rule:        rule.Name,
		Series:      st.series,
		Severity:    string(rule.Severity),
		Fires:       st.fires,
		Resolves:    st.resolves,
		FirstFireNs: st.firstFire.Nanoseconds(),
		LastFireNs:  st.lastFire.Nanoseconds(),
		ActiveAtEnd: st.firing,
	}
}

// eachState visits every tracked series in (rule order, sorted series)
// order.
func (e *Engine) eachState(f func(Rule, *seriesState)) {
	for i, rule := range e.rules {
		keys := make([]string, 0, len(e.state[i]))
		for k := range e.state[i] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			f(rule, e.state[i][k])
		}
	}
}

// renderLabels renders a sorted k="v" list as the series identity in
// events and manifest records.
func renderLabels(labels []obs.Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]obs.Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return b.String()
}
