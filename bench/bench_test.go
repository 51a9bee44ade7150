package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"trinit/bench/report"
	"trinit/bench/workload"
	"trinit/internal/dataset"
)

func smokeConfig(t *testing.T, name string) config {
	dir := t.TempDir()
	return config{
		workload: name,
		seed:     5,
		window:   time.Second,
		corpus:   dataset.DefaultConfig(),
		setups:   1,
		warmup:   100 * time.Millisecond,
		workDir:  dir,
		traceDir: filepath.Join(dir, "traces"),
		log:      io.Discard,
	}
}

// expectMetrics checks that a run reported exactly the metrics
// BENCHMARK.json defines, each with the defined unit.
func expectMetrics(t *testing.T, what string, res *result, defs []report.MetricDef) {
	t.Helper()
	defined := map[string]bool{}
	for _, d := range defs {
		defined[d.Name] = true
		if m, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("%s: %s is defined in BENCHMARK.json but was not reported", what, d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("%s: %s reported in %q, BENCHMARK.json says %q", what, d.Name, m.Unit, d.Unit)
		}
	}
	for name := range res.Metrics {
		if !defined[name] {
			t.Errorf("%s: %s was reported but is not defined in BENCHMARK.json", what, name)
		}
	}
}

// TestSmoke runs every workload for one second on the small test world,
// timed and traced, with the oracle on: the harness compiles, every
// request is answered correctly, and the metric names are the contract's.
func TestSmoke(t *testing.T) {
	bm, err := report.ReadBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workload.Names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the generator has %d", len(bm.Workloads), len(workload.Names))
	}
	for i, w := range bm.Workloads {
		if w.Name != workload.Names[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, want %q", i, w.Name, workload.Names[i])
		}
	}
	for _, name := range workload.Names {
		t.Run(name, func(t *testing.T) {
			timed, err := runTimed(smokeConfig(t, name))
			if err != nil {
				t.Fatal(err)
			}
			if !timed.Correct || timed.Failed != 0 || timed.Attempted == 0 {
				t.Errorf("timed run: correct=%v, %d of %d operations failed", timed.Correct, timed.Failed, timed.Attempted)
			}
			expectMetrics(t, "timed run", timed, bm.EndToEnd)
			for metric, m := range timed.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; must never be 0", metric, m.Value)
				}
			}

			cfg := smokeConfig(t, name)
			traced, err := runTraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct || traced.Failed != 0 {
				t.Errorf("traced run: correct=%v, %d operations failed", traced.Correct, traced.Failed)
			}
			expectMetrics(t, "traced run", traced, bm.PerLayer)
			if _, err := os.Stat(filepath.Join(cfg.traceDir, "trace-"+name+".json")); err != nil {
				t.Errorf("traced run left no span dump: %v", err)
			}
		})
	}
}
