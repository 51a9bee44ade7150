// Command compare sets two run sets of the benchmark side by side: one
// row per workload × end-to-end metric with both medians, the bound from
// BENCHMARK.json, and a verdict —
//
//	ok          b's median is no worse than a's by more than the bound
//	regressed   it is worse by more than the bound
//	unresolved  either side's run-to-run spread (interquartile distance ÷
//	            median) is wider than the bound, so the medians cannot say
//
// It exits non-zero when any row regressed or b failed more operations
// than a. Comparing two run sets of one commit (A/A) must print only ok.
//
//	go run ./cmd/compare [-benchmark ../BENCHMARK.json] a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"

	"trinit/bench/report"
	"trinit/bench/workload"
)

func main() {
	benchmark := flag.String("benchmark", "BENCHMARK.json", "path of BENCHMARK.json (bounds and directions)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-benchmark BENCHMARK.json] a.json b.json")
		os.Exit(2)
	}
	bad, err := compare(os.Stdout, *benchmark, flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if bad {
		os.Exit(1)
	}
}

// verdict judges one metric: a and b are the two sides' summaries, lower
// says which direction is better, bound is the allowed worsening.
func verdict(a, b report.Summary, lower bool, bound float64) (string, float64) {
	worse := 0.0
	if a.Median != 0 {
		worse = (b.Median - a.Median) / a.Median
		if !lower {
			worse = -worse
		}
	}
	switch {
	case a.Spread > bound || b.Spread > bound:
		return "unresolved", worse
	case worse > bound:
		return "regressed", worse
	}
	return "ok", worse
}

func failures(ws *report.WorkloadSet) (failed, attempted int) {
	for _, r := range ws.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

// compare prints the table and reports whether b is worse than a: a
// regressed row, or a higher error rate on any workload.
func compare(out *os.File, benchmarkPath, aPath, bPath string) (bool, error) {
	bm, err := report.ReadBenchmark(benchmarkPath)
	if err != nil {
		return false, err
	}
	a, err := report.ReadRunSet(aPath)
	if err != nil {
		return false, err
	}
	b, err := report.ReadRunSet(bPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "a: %s  commit %s  seed %d  %d runs × %gs  nproc %d  GOMAXPROCS %d  %s\n",
		aPath, a.Env.Commit, a.Env.Seed, a.Env.Runs, a.Env.Seconds, a.Env.NProc, a.Env.GOMAXPROCS, a.Env.Go)
	fmt.Fprintf(out, "b: %s  commit %s  seed %d  %d runs × %gs  nproc %d  GOMAXPROCS %d  %s\n",
		bPath, b.Env.Commit, b.Env.Seed, b.Env.Runs, b.Env.Seconds, b.Env.NProc, b.Env.GOMAXPROCS, b.Env.Go)
	fmt.Fprintf(out, "%-14s %-20s %-5s %12s %12s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "unit", "a median", "b median", "change", "bound", "a spread", "b spread", "verdict")

	bad := false
	for _, w := range workload.Names {
		wa, wb := a.Workloads[w], b.Workloads[w]
		if wa == nil || wb == nil {
			continue
		}
		for _, def := range bm.EndToEnd {
			sa, okA := wa.EndToEnd[def.Name]
			sb, okB := wb.EndToEnd[def.Name]
			if !okA || !okB {
				return false, fmt.Errorf("%s: metric %s missing from a run set", w, def.Name)
			}
			v, worse := verdict(sa, sb, def.Better == "lower", def.Bound)
			// change is signed so that positive is always worse.
			fmt.Fprintf(out, "%-14s %-20s %-5s %12.4f %12.4f %+7.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n",
				w, def.Name, def.Unit, sa.Median, sb.Median, 100*worse, 100*def.Bound, 100*sa.Spread, 100*sb.Spread, v)
			bad = bad || v == "regressed"
		}
		fa, na := failures(wa)
		fb, nb := failures(wb)
		rateA, rateB := float64(fa)/float64(max(na, 1)), float64(fb)/float64(max(nb, 1))
		v := "ok"
		if rateB > rateA {
			v, bad = "regressed", true
		}
		fmt.Fprintf(out, "%-14s %-20s %-5s %12.6f %12.6f %8s %7s %8s %8s  %s\n",
			w, "error_rate", "ratio", rateA, rateB, "", "0%", "", "", v)
	}
	return bad, nil
}
