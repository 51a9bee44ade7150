package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"

	"trinit/bench/report"
	"trinit/bench/workload"
)

// child runs this binary once in a fresh process, so that runs share no
// heap, cache or peak-memory state, and parses the result line.
func child(name string, seed int64, seconds float64, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: %w", name, seed, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: bad result line: %w", name, seed, trace, err)
	}
	return &res, nil
}

// runSet measures the named workload (all four when empty) runs times on
// seeds seed, seed+1, … plus one traced run each, prints every metric, and
// writes the set to out. Any incorrect run is an error.
func runSet(name string, seed int64, seconds float64, runs int, out string) error {
	names := workload.Names
	if name != "" {
		names = []string{name}
	}
	set := &report.RunSet{
		Schema: report.Schema,
		Env: report.Env{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
			Commit: commit(), Seed: seed, Runs: runs, Seconds: seconds,
			Rates: map[string]float64{
				"token-explore_requests_per_s": workload.TokenExploreRate,
				"ingest-mixed_batches_per_s":   workload.IngestBatchRate,
			},
		},
		Workloads: map[string]*report.WorkloadSet{},
	}
	var incorrect []string
	for _, w := range names {
		ws := &report.WorkloadSet{}
		set.Workloads[w] = ws
		for i := 0; i < runs; i++ {
			res, err := child(w, seed+int64(i), seconds, 0)
			if err != nil {
				return err
			}
			if !res.Correct || res.Failed > 0 {
				incorrect = append(incorrect, fmt.Sprintf("%s seed %d", w, seed+int64(i)))
			}
			ws.Runs = append(ws.Runs, report.Run{Seed: seed + int64(i), Result: *res})
		}
		ws.EndToEnd = report.Summarize(ws.Runs)
		traced, err := child(w, seed, seconds, 1)
		if err != nil {
			return err
		}
		if !traced.Correct {
			incorrect = append(incorrect, w+" traced")
		}
		ws.PerLayer = traced.Metrics
		printWorkload(w, ws)
	}
	if out != "" {
		if err := set.Write(out); err != nil {
			return err
		}
	}
	if len(incorrect) > 0 {
		return fmt.Errorf("incorrect runs: %s", strings.Join(incorrect, ", "))
	}
	return nil
}

func printWorkload(name string, ws *report.WorkloadSet) {
	fmt.Printf("== %s (%d runs)\n", name, len(ws.Runs))
	for _, k := range slices.Sorted(maps.Keys(ws.EndToEnd)) {
		s := ws.EndToEnd[k]
		fmt.Printf("%-36s %14.4f %-6s q1 %.4f q3 %.4f spread %.1f%%\n", k, s.Median, s.Unit, s.Q1, s.Q3, 100*s.Spread)
	}
	for _, k := range slices.Sorted(maps.Keys(ws.PerLayer)) {
		fmt.Printf("%-36s %14.4f %s\n", k, ws.PerLayer[k].Value, ws.PerLayer[k].Unit)
	}
}

// commit names the measured commit: git's HEAD where the checkout is a
// repository, "unknown" elsewhere.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
