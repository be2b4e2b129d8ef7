// Package alert is the deterministic alerting half of the live
// operations plane: a rule engine evaluated once per simulation round
// against metric-registry snapshots, turning the paper's operational
// signals (§2.3 SNR dips, capacity-flap churn, TE solver load) into
// alert.fire / alert.resolve trace events and alert metrics.
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

// holds reports whether v breaches threshold under o.
func (o Op) holds(v, threshold float64) bool {
	return (o == OpAbove && v >= threshold) || (o == OpBelow && v <= threshold)
}

// Source selects what number a rule extracts from a matched series
// each evaluation.
type Source int

const (
	// SourceValue is the series value itself (gauge or counter total).
	SourceValue Source = iota
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
	// SourceBurnRate is the multi-window SLO burn rate over the values
	// the engine itself evaluated: the fraction of evaluations violating
	// the rule's SLO within each window, divided by the error Budget,
	// taking the minimum of the short and long windows (both must burn —
	// the standard guard against paging on a single bad round that the
	// long window would forgive, and against a long-decayed incident the
	// short window shows has ended).
	SourceBurnRate
)

// String names the source for trace attributes.
func (s Source) String() string {
	switch s {
	case SourceValue:
		return "value"
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
	// Name identifies the rule in events and metrics.
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
	series    string // rendered label set, the stable identity
	max       float64
	hasMax    bool
	marks     []mark // burn-rate rules: this series' evaluations, oldest first
	breach    int
	firing    bool
	fires     int
	resolves  int
	firstFire time.Duration
	lastFire  time.Duration
}

// mark is one burn-rate evaluation: its simulation time and whether
// the value violated the rule's SLO.
type mark struct {
	t   time.Duration
	bad bool
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
			key := obs.LabelList(snap.Labels)
			st, ok := e.state[idx][key]
			if !ok {
				st = &seriesState{series: key}
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
			value, ok = burnRate(rule, snap.Value, e.now(), st)
		} else {
			value, ok = extract(rule.Source, snap, st)
		}
		if !ok {
			continue
		}
		breach := rule.Op.holds(value, rule.Threshold)
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
// series state (running max). The bool is false when there is nothing
// to evaluate yet (empty histogram).
func extract(src Source, snap obs.SeriesSnapshot, st *seriesState) (float64, bool) {
	switch src {
	case SourceValue:
		return snap.Value, true
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

// burnRate evaluates a SourceBurnRate rule for one series: it marks
// the value bad or not at now and returns the min of the short- and
// long-window burn rates. The engine's clock never goes backwards, so
// the marks stay in time order. Marks at or before now-LongWindow are
// in neither window; they are dropped once they are half the slice, so
// a daemon ticking every 10 ms does not move two minutes of marks per
// tick. False (skip) when either window holds no marks.
func burnRate(rule Rule, v float64, now time.Duration, st *seriesState) (float64, bool) {
	st.marks = append(st.marks, mark{t: now, bad: rule.SLOOp.holds(v, rule.SLO)})
	old := 0
	for old < len(st.marks) && st.marks[old].t <= now-rule.LongWindow {
		old++
	}
	if 2*old > len(st.marks) {
		st.marks = append(st.marks[:0], st.marks[old:]...)
	}
	short, ok := windowBurn(st.marks, rule, now-rule.ShortWindow)
	if !ok {
		return 0, false
	}
	long, ok := windowBurn(st.marks, rule, now-rule.LongWindow)
	if !ok {
		return 0, false
	}
	return math.Min(short, long), true
}

// windowBurn is one window's burn rate: the fraction of marks after
// from that are bad, divided by the error budget.
func windowBurn(marks []mark, rule Rule, from time.Duration) (float64, bool) {
	n, bad := 0, 0
	for i := len(marks) - 1; i >= 0 && marks[i].t > from; i-- {
		n++
		if marks[i].bad {
			bad++
		}
	}
	if n == 0 {
		return 0, false
	}
	return float64(bad) / float64(n) / rule.Budget, true
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

// AlertRecord is one (rule, series) pair's history as Active reports
// it on /sliz. Times are *simulation* time, so records are
// deterministic for a given seed.
type AlertRecord struct {
	// Rule is the alert rule name (e.g. "snr_dip").
	Rule string `json:"rule"`
	// Series is the rendered label set of the metric series the rule
	// matched ("" for the unlabeled series).
	Series string `json:"series,omitempty"`
	// Severity is the rule's severity ("warning" or "critical").
	Severity string `json:"severity,omitempty"`
	// Fires and Resolves count state transitions so far.
	Fires    int `json:"fires"`
	Resolves int `json:"resolves"`
	// FirstFireNs / LastFireNs are simulation-time stamps of the first
	// and last fire transitions.
	FirstFireNs int64 `json:"first_fire_ns"`
	LastFireNs  int64 `json:"last_fire_ns"`
	// ActiveAtEnd marks a series still firing when the record was
	// taken (every record Active returns).
	ActiveAtEnd bool `json:"active_at_end,omitempty"`
}

// Active returns the (rule, series) pairs currently firing, in rule
// order then sorted series.
func (e *Engine) Active() []AlertRecord {
	if e == nil {
		return nil
	}
	var out []AlertRecord
	for i, rule := range e.rules {
		keys := make([]string, 0, len(e.state[i]))
		for k, st := range e.state[i] {
			if st.firing {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			st := e.state[i][k]
			out = append(out, AlertRecord{
				Rule:        rule.Name,
				Series:      st.series,
				Severity:    string(rule.Severity),
				Fires:       st.fires,
				Resolves:    st.resolves,
				FirstFireNs: st.firstFire.Nanoseconds(),
				LastFireNs:  st.lastFire.Nanoseconds(),
				ActiveAtEnd: true,
			})
		}
	}
	return out
}
