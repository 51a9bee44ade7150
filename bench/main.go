// Command bench is the repository's one benchmark: four workloads through
// trinitd's HTTP surface, with named end-to-end and per-layer metrics. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
// One run measures one workload:
//
//	bash bench/run.sh --workload point-warm --seed 1 --seconds 15 --trace 0
//
// prints every end-to-end metric (--trace 1: every per-layer metric, from a
// counter-instrumented load phase and a traced serial replay) as one JSON
// object on the last line of standard output. With --runs N the command
// runs every workload N times on consecutive seeds plus one traced run
// each, in fresh processes, and writes the run set to --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: point-warm, token-explore, wide-join or ingest-mixed (run sets: empty = all)")
		seed    = flag.Int64("seed", 1, "seed of the request sequences")
		seconds = flag.Float64("seconds", 17, "length of the timed window")
		traced  = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		runs    = flag.Int("runs", 0, "run-set mode: timed runs per workload, on seeds seed, seed+1, …")
		out     = flag.String("out", "", "run-set mode: file to write the run set to")
	)
	flag.Parse()
	// Load comes from this one process: clients + writers ≤ nproc, and the
	// program under test gets at most four cores, like a small server.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if *runs > 0 {
		if err := runSet(*name, *seed, *seconds, *runs, *out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	work, err := os.MkdirTemp(buildDir(), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		corpus:   benchCorpus(),
		setups:   3,
		warmup:   2 * time.Second,
		workDir:  work,
		traceDir: filepath.Join(buildDir(), "results"),
		log:      os.Stderr,
	}
	var res *result
	if *traced != 0 {
		res, err = runTraced(cfg)
	} else {
		res, err = runTimed(cfg)
	}
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// buildDir is where the benchmark keeps everything it writes: build
// outputs, corpora, data directories and trace dumps, all under the
// current directory (run.sh starts the command at the checkout root).
func buildDir() string {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	return dir
}
