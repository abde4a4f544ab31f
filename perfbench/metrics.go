package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchSpec is the part of BENCHMARK.json the program checks its own
// output against: the workloads it may be asked to run and the exact
// metric sets of untraced and traced runs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// loadSpec reads BENCHMARK.json and rejects names or units outside the
// metric grammar, duplicate names and unknown directions.
func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, w := range s.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			return nil, fmt.Errorf("%s: bad or duplicate workload name %q", path, w.Name)
		}
		seen[w.Name] = true
	}
	for _, m := range append(append([]metricSpec{}, s.EndToEnd...), s.PerLayer...) {
		switch {
		case !nameRE.MatchString(m.Name) || seen[m.Name]:
			return nil, fmt.Errorf("%s: bad or duplicate metric name %q", path, m.Name)
		case !unitRE.MatchString(m.Unit):
			return nil, fmt.Errorf("%s: metric %s has bad unit %q", path, m.Name, m.Unit)
		case m.Better != "lower" && m.Better != "higher":
			return nil, fmt.Errorf("%s: metric %s has direction %q", path, m.Name, m.Better)
		}
		seen[m.Name] = true
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricSet collects named values in the order they are measured.
type metricSet struct {
	names []string
	vals  map[string]float64
}

func newMetricSet() *metricSet { return &metricSet{vals: map[string]float64{}} }

func (m *metricSet) set(name string, v float64) {
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = v
}

// metricValue is one metric as the result line prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render checks that m holds exactly the metrics of want, each a finite
// number, and attaches the units BENCHMARK.json declares.
func (m *metricSet) render(want []metricSpec) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(want))
	for _, w := range want {
		v, ok := m.vals[w.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", w.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not a finite number: %v", w.Name, v)
		}
		out[w.Name] = metricValue{Value: v, Unit: w.Unit}
	}
	for _, n := range m.names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", n)
		}
	}
	return out, nil
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
