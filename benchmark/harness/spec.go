// Package harness is the mviewload benchmark: workload generators, the
// load generator that drives mviewd child processes over HTTP, the
// output check against eval.Materialize over the generator's own
// model, the single-client traced pass, and the in-process layer
// probes. See benchmark/README.md.
package harness

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

//go:embed spec.json
var specJSON []byte

// WorkloadSpec is one workload's frozen load: the open-loop arrival
// rate (commits/s over all writers), the closed-loop capacity at the
// seed commit that rate was derived from, the follower read rate where
// there is a reader, and the latency limit its p99 is held against.
type WorkloadSpec struct {
	Name               string  `json:"name"`
	Why                string  `json:"why"`
	Daemon             string  `json:"daemon"`
	Writers            int     `json:"writers"`
	ClosedLoopCapacity float64 `json:"closed_loop_capacity"`
	OpenLoopRate       float64 `json:"open_loop_rate"`
	ReadRate           float64 `json:"read_rate,omitempty"`
	LatencyLimitMS     float64 `json:"latency_limit_ms"`
}

// MetricSpec declares one metric. On lists the workloads where the
// metric is defined (end-to-end) or predicted to move (per-layer); on
// every other workload the prediction is no change.
type MetricSpec struct {
	Name       string   `json:"name"`
	Unit       string   `json:"unit"`
	Better     string   `json:"better"`
	Bound      float64  `json:"bound,omitempty"`
	Workloads  []string `json:"workloads,omitempty"`
	Definition string   `json:"definition,omitempty"`
	Src        string   `json:"src,omitempty"`
	ShouldMove string   `json:"should_move,omitempty"`
	On         []string `json:"on,omitempty"`
}

// Spec is benchmark/harness/spec.json: everything BENCHMARK.json
// says, plus what its fixed key set has no room for.
type Spec struct {
	Summary   string         `json:"summary"`
	Workloads []WorkloadSpec `json:"workloads"`
	EndToEnd  []MetricSpec   `json:"end_to_end"`
	PerLayer  []MetricSpec   `json:"per_layer"`
}

// LoadSpec parses the embedded spec.
func LoadSpec() (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}

// Workload returns the named workload's spec.
func (s *Spec) Workload(name string) (WorkloadSpec, bool) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return WorkloadSpec{}, false
}

// Metric is one measured value. Samples is how many observations the
// value summarises (0 is reported as a defect by the self-test).
type Metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// metricSet collects metrics by name, filling units from the spec.
type metricSet struct {
	units map[string]string
	m     map[string]Metric
}

func newMetricSet(specs []MetricSpec) *metricSet {
	ms := &metricSet{units: make(map[string]string), m: make(map[string]Metric)}
	for _, s := range specs {
		ms.units[s.Name] = s.Unit
	}
	return ms
}

// set records a metric; an undeclared or repeated name is a bug in the
// harness, so it panics rather than emit a ledger nothing can read.
func (ms *metricSet) set(name string, v float64, samples int) {
	unit, ok := ms.units[name]
	if !ok {
		panic("harness: metric " + name + " is not declared in spec.json")
	}
	if _, dup := ms.m[name]; dup {
		panic("harness: metric " + name + " set twice")
	}
	ms.m[name] = Metric{Name: name, Value: v, Unit: unit, Samples: samples}
}

// list returns the metrics in spec order; a declared metric that was
// never set is an error.
func (ms *metricSet) list(specs []MetricSpec) ([]Metric, error) {
	out := make([]Metric, 0, len(specs))
	for _, s := range specs {
		m, ok := ms.m[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		out = append(out, m)
	}
	return out, nil
}
