// Command trinit-bench regenerates the paper's evaluation tables
// (experiments E1–E6) plus the ablation studies E7–E8; internal/experiments
// documents each one.
//
// Usage:
//
//	trinit-bench [-exp all|e1|...|e8|e1,e5] [-scale small|bench|benchxN] [-queries 70] [-seed 1]
//
// -scale benchxN multiplies the bench world's entity counts by N (e.g.
// benchx10 for a ~10× world).
//
// -exp accepts a comma-separated list; an unknown name exits with status
// 2. The tables are for reading; the repository's machine-readable
// performance record is the bench/ benchmark.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"trinit/internal/dataset"
	"trinit/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiments to run: all, or a comma list of e1..e8")
	scale := flag.String("scale", "small", "world scale: small, bench, or benchxN for an N-times bench world")
	queries := flag.Int("queries", 70, "workload size (paper: 70)")
	seed := flag.Int64("seed", 1, "world seed")
	flag.Parse()

	cfg := dataset.DefaultConfig()
	switch {
	case *scale == "small":
	case *scale == "bench":
		cfg = dataset.BenchConfig()
	case strings.HasPrefix(*scale, "benchx"):
		factor, err := strconv.Atoi(strings.TrimPrefix(*scale, "benchx"))
		if err != nil || factor < 1 {
			fmt.Fprintf(os.Stderr, "trinit-bench: bad -scale %q (want benchxN with N >= 1)\n", *scale)
			os.Exit(2)
		}
		cfg = dataset.BenchConfig().Scaled(factor)
	default:
		fmt.Fprintf(os.Stderr, "trinit-bench: unknown -scale %q (use small, bench, or benchxN)\n", *scale)
		os.Exit(2)
	}
	cfg.Seed = *seed

	selected := strings.Split(*exp, ",")
	want := func(name string) bool {
		for _, s := range selected {
			s = strings.TrimSpace(s)
			if s == "all" || strings.EqualFold(s, name) {
				return true
			}
		}
		return false
	}

	var w *dataset.World
	world := func() *dataset.World {
		if w == nil {
			start := time.Now()
			w = dataset.Generate(cfg)
			fmt.Printf("generated synthetic world (%d people, %d KG facts, %d docs) in %v\n\n",
				cfg.People, w.KGSize(), len(w.Docs()), time.Since(start).Round(time.Millisecond))
		}
		return w
	}

	ran := false
	if want("e1") {
		ran = true
		fmt.Println(experiments.FormatE1(experiments.RunE1(world(), *queries, 10)))
	}
	if want("e2") {
		ran = true
		fmt.Println(experiments.FormatE2(experiments.RunE2(world()), 8))
	}
	if want("e3") {
		ran = true
		fmt.Println(experiments.FormatE3(experiments.RunE3()))
	}
	if want("e4") {
		ran = true
		fmt.Println(experiments.FormatE4(experiments.RunE4(world())))
	}
	if want("e5") {
		ran = true
		// E5 caps the workload at 20 queries.
		e5Queries := min(*queries, 20)
		fmt.Println(experiments.FormatE5(experiments.RunE5(world(), e5Queries, nil)))
		fmt.Println(experiments.FormatE5Depth(experiments.RunE5Depth(world(), e5Queries, nil)))
	}
	if want("e6") {
		ran = true
		fmt.Println(experiments.FormatE6(experiments.RunE6(world())))
	}
	if want("e7") {
		ran = true
		fmt.Println(experiments.FormatE7(experiments.RunE7(world(), min(*queries, 30))))
	}
	if want("e8") {
		ran = true
		fmt.Println(experiments.FormatE8(experiments.RunE8(world(), min(*queries, 30))))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "trinit-bench: unknown experiment %q (use all, or a comma list of e1..e8)\n", *exp)
		os.Exit(2)
	}
}
