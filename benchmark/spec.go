package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specPath is BENCHMARK.json as seen from the benchmark's directory, which
// is where run.sh (and `go test`) start the program.
const specPath = "../BENCHMARK.json"

// metricSpec is one metric as BENCHMARK.json declares it. The file is the
// only place names, units, directions and bounds are written down; the
// program looks them up there, so the two cannot drift apart.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec() (*benchSpec, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return nil, fmt.Errorf("read %s (run from the benchmark directory, or through run.sh): %w", specPath, err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", specPath, err)
	}
	return &s, nil
}

// metrics returns the metric list a run with the given trace mode reports.
func (s *benchSpec) metrics(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// seal turns computed values into the contract's metrics map: exactly the
// declared names, each with its declared unit. A declared metric the run
// did not compute, or a computed one nobody declared, is a bug in the
// benchmark and fails the run rather than passing silently.
func (s *benchSpec) seal(trace bool, vals map[string]float64) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	for _, m := range s.metrics(trace) {
		v, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}
