package main

import (
	"testing"

	"trinit/bench/report"
)

func TestVerdict(t *testing.T) {
	sum := func(median, spread float64) report.Summary { return report.Summary{Median: median, Spread: spread} }
	cases := []struct {
		name  string
		a, b  report.Summary
		lower bool
		bound float64
		want  string
	}{
		{"equal", sum(10, 0.01), sum(10, 0.01), true, 0.10, "ok"},
		{"slower within the bound", sum(10, 0.01), sum(10.9, 0.01), true, 0.10, "ok"},
		{"slower beyond the bound", sum(10, 0.01), sum(11.5, 0.01), true, 0.10, "regressed"},
		{"faster is never a regression", sum(10, 0.01), sum(5, 0.01), true, 0.10, "ok"},
		{"throughput: lower is worse", sum(1000, 0.01), sum(850, 0.01), false, 0.10, "regressed"},
		{"throughput: higher is fine", sum(1000, 0.01), sum(1500, 0.01), false, 0.10, "ok"},
		{"a's spread hides the difference", sum(10, 0.2), sum(11.5, 0.01), true, 0.10, "unresolved"},
		{"b's spread hides equality too", sum(10, 0.01), sum(10, 0.2), true, 0.10, "unresolved"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.a, c.b, c.lower, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
