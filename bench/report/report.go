// Package report defines what the benchmark writes down: the result line
// of one run, the run-set file that collects a commit's runs under one
// stable schema, and the reading of BENCHMARK.json's metric definitions.
package report

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Schema names the run-set file format. It is stable: every committed
// bench/results/BENCH_<pr>.*.json carries it, so a trajectory can be read.
const Schema = "trinit-bench/v7"

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of a run's standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// RunSet is a set of runs of one commit: for every workload, several
// timed runs on consecutive seeds and one traced run.
type RunSet struct {
	Schema    string                  `json:"schema"`
	Env       Env                     `json:"env"`
	Workloads map[string]*WorkloadSet `json:"workloads"`
}

// Env stamps what a run set's numbers depend on besides the code.
type Env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs"`
	Seconds    float64 `json:"seconds"`
	// Rates are the frozen open-loop schedules the runs used.
	Rates map[string]float64 `json:"rates"`
}

// WorkloadSet is one workload's runs and their summary.
type WorkloadSet struct {
	Runs []Run `json:"runs"`
	// EndToEnd summarises each end-to-end metric over Runs.
	EndToEnd map[string]Summary `json:"end_to_end"`
	// PerLayer holds the traced run's metrics.
	PerLayer map[string]Metric `json:"per_layer"`
}

// Run is one timed run.
type Run struct {
	Seed int64 `json:"seed"`
	Result
}

// Summary is the median and quartiles of one metric over a workload's
// runs; Spread is the interquartile distance as a share of the median.
type Summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
}

// Quartiles cuts the values exactly as Python's
// statistics.quantiles(values, n=4) does (the default, exclusive method,
// which extrapolates past the ends of very small samples). A single value
// is its own quartiles.
func Quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if len(v) == 1 {
		return v[0], v[0], v[0]
	}
	const n = 4
	m := len(v) + 1
	at := func(i int) float64 {
		j := min(max(i*m/n, 1), len(v)-1)
		delta := i*m - j*n
		return (v[j-1]*float64(n-delta) + v[j]*float64(delta)) / n
	}
	return at(1), at(2), at(3)
}

// Summarize computes the summary of every metric the runs report.
func Summarize(runs []Run) map[string]Summary {
	out := map[string]Summary{}
	if len(runs) == 0 {
		return out
	}
	for name, m := range runs[0].Metrics {
		values := make([]float64, len(runs))
		for i, r := range runs {
			values[i] = r.Metrics[name].Value
		}
		s := Summary{Unit: m.Unit}
		s.Q1, s.Median, s.Q3 = Quartiles(values)
		if s.Median != 0 {
			s.Spread = (s.Q3 - s.Q1) / s.Median
		}
		out[name] = s
	}
	return out
}

// Write stores the run set at path.
func (s *RunSet) Write(path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadRunSet loads a run set and checks its schema.
func ReadRunSet(path string) (*RunSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s RunSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, Schema)
	}
	return &s, nil
}

// Benchmark is the part of BENCHMARK.json the benchmark's own tools read.
type Benchmark struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []MetricDef `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

// MetricDef defines one metric: its unit, which direction is better, and
// (end-to-end only) the share of the baseline median by which it may
// worsen before a change counts as a regression.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// ReadBenchmark loads BENCHMARK.json.
func ReadBenchmark(path string) (*Benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Benchmark
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}
