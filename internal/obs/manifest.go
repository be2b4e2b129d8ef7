package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// This file implements the run manifest: a JSON record of what a run
// was (tool, seed, options) and what it ended with (alert summaries,
// final metric totals), written at the end of every cmd/ run that asks
// for one. It carries no durations (those live in internal/obs/perf),
// so it is as byte-identical across same-flag runs as the metrics and
// trace outputs.

// AlertRecord summarizes one alert series at the end of a run (see
// internal/obs/alert). Times are *simulation* time, so records are
// deterministic for a given seed.
type AlertRecord struct {
	// Rule is the alert rule name (e.g. "snr_dip").
	Rule string `json:"rule"`
	// Series is the rendered label set of the metric series the rule
	// matched ("" for the unlabeled series).
	Series string `json:"series,omitempty"`
	// Severity is the rule's severity ("warning" or "critical").
	Severity string `json:"severity,omitempty"`
	// Fires and Resolves count state transitions over the run.
	Fires    int `json:"fires"`
	Resolves int `json:"resolves"`
	// FirstFireNs / LastFireNs are simulation-time stamps of the first
	// and last fire transitions.
	FirstFireNs int64 `json:"first_fire_ns"`
	LastFireNs  int64 `json:"last_fire_ns"`
	// ActiveAtEnd marks alerts still firing when the run finished.
	ActiveAtEnd bool `json:"active_at_end,omitempty"`
}

// Manifest accumulates the run record. All mutating methods are safe
// on a nil receiver and for concurrent use.
type Manifest struct {
	mu sync.Mutex
	m  manifestJSON
}

// manifestJSON is the serialized schema (documented in DESIGN.md).
type manifestJSON struct {
	// Tool is the command that produced the run (e.g. "rwc-wansim").
	Tool string `json:"tool"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Seed is the top-level simulation seed.
	Seed uint64 `json:"seed"`
	// Options records the effective flag values, name → rendered value.
	Options map[string]string `json:"options,omitempty"`
	// Alerts is the end-of-run alert summary in completion order.
	Alerts []AlertRecord `json:"alerts,omitempty"`
	// MetricTotals is the final registry snapshot, "name{labels}" → value.
	MetricTotals map[string]float64 `json:"metric_totals,omitempty"`
}

// NewManifest returns a manifest for the named tool.
func NewManifest(tool string) *Manifest {
	return &Manifest{m: manifestJSON{Tool: tool, GoVersion: goVersion()}}
}

// SetSeed records the run seed.
func (m *Manifest) SetSeed(seed uint64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.m.Seed = seed
	m.mu.Unlock()
}

// SetOption records one effective option value.
func (m *Manifest) SetOption(name, value string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.m.Options == nil {
		m.m.Options = make(map[string]string)
	}
	m.m.Options[name] = value
	m.mu.Unlock()
}

// AddAlert appends one alert summary record.
func (m *Manifest) AddAlert(rec AlertRecord) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.m.Alerts = append(m.m.Alerts, rec)
	m.mu.Unlock()
}

// Alerts returns a copy of the recorded alert summaries.
func (m *Manifest) Alerts() []AlertRecord {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]AlertRecord(nil), m.m.Alerts...)
}

// SetMetricTotals stores the final metric snapshot.
func (m *Manifest) SetMetricTotals(totals map[string]float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.m.MetricTotals = totals
	m.mu.Unlock()
}

// WriteJSON serializes the manifest, indented, with sorted map keys
// (encoding/json sorts them), ending with a newline.
func (m *Manifest) WriteJSON(w io.Writer) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.m)
}

// ManifestTotals flattens a run-manifest JSON document into the same
// key → value shape PromTotals produces, so cmd/rwc-diff compares
// manifests like any other exact artifact. Every field takes part:
// the seed, every metric total (prefixed "metric:") and every alert
// summary record (prefixed "alert:<rule>{<series>}:") by value; the
// string fields (tool, go_version, each option) as a "name=value" key
// of value 1, so a changed string shows as one key per side. A
// top-level key the schema does not know (the "phases" list manifests
// carried while they still stored wall time) becomes one key of its
// own: against a current manifest it is one difference.
func ManifestTotals(r io.Reader) (map[string]float64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	var m manifestJSON
	var keys map[string]json.RawMessage
	if err = json.Unmarshal(data, &m); err == nil {
		err = json.Unmarshal(data, &keys)
	}
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	out := make(map[string]float64, len(m.MetricTotals)+len(m.Options)+5*len(m.Alerts)+3)
	out["tool="+m.Tool] = 1
	out["go_version="+m.GoVersion] = 1
	out["seed"] = float64(m.Seed)
	for k, v := range m.Options {
		out["option:"+k+"="+v] = 1
	}
	for k, v := range m.MetricTotals {
		out["metric:"+k] = v
	}
	for _, a := range m.Alerts {
		p := fmt.Sprintf("alert:%s{%s}:", a.Rule, a.Series)
		out[p+"severity="+a.Severity] = 1
		out[p+"fires"] = float64(a.Fires)
		out[p+"resolves"] = float64(a.Resolves)
		out[p+"first_fire_ns"] = float64(a.FirstFireNs)
		out[p+"last_fire_ns"] = float64(a.LastFireNs)
		active := 0.0
		if a.ActiveAtEnd {
			active = 1
		}
		out[p+"active_at_end"] = active
	}
	for k := range keys {
		switch k {
		case "tool", "go_version", "seed", "options", "alerts", "metric_totals":
		default:
			out[k] = 1
		}
	}
	return out, nil
}
