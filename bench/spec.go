package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// The five end-to-end metrics. Every workload reports all of them (the
// benchmark contract requires it), each under its own definition of
// "operation" and "unit of work"; README.md has the table.
const (
	mSetup   = "setup_s"     // median wall of the repeated set-up
	mWork    = "work_per_s"  // units of work completed per second of the timed phase
	mOpP50   = "op_p50_ms"   // median latency of the workload's operation
	mOpTail  = "op_tail_ms"  // tail latency of the same operation
	mPeakRSS = "peak_rss_mb" // VmHWM of this process after the timed phase
)

// metricSpec is one metric declaration of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json: the single catalogue of workloads and metric
// names, units, directions and bounds. The program reads it at run time
// so the names it prints cannot drift from the names the driver checks.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: workloads, end_to_end and per_layer are all required", path)
	}
	return &s, nil
}

// metrics returns the end-to-end list for an untraced run and the
// per-layer list for a traced one — what one run prints.
func (s *spec) metrics(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

func (s *spec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}
