package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// This file implements the run manifest: a JSON record of what a run
// was (tool, seed, options) and what it cost (per-phase wall
// durations, final metric totals), written at the end of every cmd/
// run that asks for one. Unlike the metrics and trace sinks, the
// manifest may carry wall-clock durations — they are measured through
// a Clock injected by cmd/, so the byte-identical guarantee applies
// only to the metrics and trace outputs.

// PhaseRecord is one timed phase (a figure, a policy run, a round).
type PhaseRecord struct {
	Name string `json:"name"`
	// WallNs is the real elapsed time of the phase in nanoseconds.
	WallNs int64 `json:"wall_ns"`
}

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
	// Phases lists timed phases in completion order.
	Phases []PhaseRecord `json:"phases,omitempty"`
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

// AddPhase appends a timed phase.
func (m *Manifest) AddPhase(name string, wall time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.m.Phases = append(m.m.Phases, PhaseRecord{Name: name, WallNs: wall.Nanoseconds()})
	m.mu.Unlock()
}

// Phases returns a copy of the recorded phases.
func (m *Manifest) Phases() []PhaseRecord {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]PhaseRecord(nil), m.m.Phases...)
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
// manifests like any other scalar artifact: the seed, every metric
// total (prefixed "metric:"), and every alert summary record (prefixed
// "alert:<rule>{<series>}:"). Wall-clock phases are deliberately
// excluded — they differ between any two runs by nature.
func ManifestTotals(r io.Reader) (map[string]float64, error) {
	var m manifestJSON
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	out := make(map[string]float64, len(m.MetricTotals)+5*len(m.Alerts)+1)
	out["seed"] = float64(m.Seed)
	for k, v := range m.MetricTotals {
		out["metric:"+k] = v
	}
	for _, a := range m.Alerts {
		p := fmt.Sprintf("alert:%s{%s}:", a.Rule, a.Series)
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
	return out, nil
}
