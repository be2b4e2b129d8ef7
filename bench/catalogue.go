package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// BENCHMARK.json at the repository root is the single definition of what
// the benchmark runs and reports: the workloads, the metrics with their
// units and directions, the bounds and the window length. The harness
// reads it at start-up; nothing here repeats it.
//
// Every workload reports every metric: the file has one metric list, not
// one per workload. A per-layer metric whose layer is not on a
// workload's path reads 0 there.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is rejected; per-layer metrics
	// have none.
	Bound float64 `json:"bound,omitempty"`
}

type catalogue struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func loadCatalogue(path string) (*catalogue, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c catalogue
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	for _, w := range c.Workloads {
		if runners[w.Name] == nil {
			return nil, fmt.Errorf("%s: no runner for workload %q", path, w.Name)
		}
	}
	return &c, nil
}

const (
	lower  = "lower"
	higher = "higher"
)

// The workloads the harness can run; BENCHMARK.json says why each is
// there.
const (
	wlGreedy = "oneshot-greedy-c200"
	wlGK     = "oneshot-gk-c200"
	wlKPath  = "oneshot-kpath-c200"
	wlCLI    = "cli-obs-abilene"
	wlDaemon = "daemon-load-c64"
)
