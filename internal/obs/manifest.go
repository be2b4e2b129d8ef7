package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file implements the run manifest: a JSON record of what a run
// was (tool, toolchain, seed, every flag value), written once at the
// end of every cmd/ run that asks for one. What the run ended with is
// in the run's other artifacts — the registry's Prometheus exposition
// and the trace's alert.fire/alert.resolve events — so the manifest
// copies none of it. It carries no durations (those live in
// internal/obs/perf), so it is as byte-identical across same-flag runs
// as the metrics and trace outputs.

// Manifest is the run record (schema documented in DESIGN.md).
type Manifest struct {
	// Tool is the command that produced the run (e.g. "rwc-wansim").
	Tool string `json:"tool"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Seed is the top-level simulation seed.
	Seed uint64 `json:"seed"`
	// Options records the effective flag values, name → rendered value.
	Options map[string]string `json:"options,omitempty"`
}

// WriteJSON serializes the manifest, indented, with sorted option keys
// (encoding/json sorts them), ending with a newline.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// ManifestTotals flattens a run-manifest JSON document into the same
// key → value shape PromTotals produces, so cmd/rwc-diff compares
// manifests like any other exact artifact. The seed is kept by value;
// the string fields (tool, go_version, each option) become a
// "name=value" key of value 1, so a changed string shows as one key
// per side. Any other top-level key (the "phases" list manifests
// carried while they still stored wall time, or the "metric_totals"
// and "alerts" copies they carried before they recorded only what a
// run was) becomes one key of its own: against a current manifest it
// is one difference.
func ManifestTotals(r io.Reader) (map[string]float64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	var m Manifest
	var keys map[string]json.RawMessage
	if err = json.Unmarshal(data, &m); err == nil {
		err = json.Unmarshal(data, &keys)
	}
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	out := make(map[string]float64, len(m.Options)+len(keys))
	out["tool="+m.Tool] = 1
	out["go_version="+m.GoVersion] = 1
	out["seed"] = float64(m.Seed)
	for k, v := range m.Options {
		out["option:"+k+"="+v] = 1
	}
	for k := range keys {
		switch k {
		case "tool", "go_version", "seed", "options":
		default:
			out[k] = 1
		}
	}
	return out, nil
}
