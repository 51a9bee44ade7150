package report

import (
	"path/filepath"
	"testing"
)

// The expected values are statistics.quantiles(values, n=4) of Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		values     []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4}, 4, 4, 4},
		{[]float64{5, 5, 5, 5}, 5, 5, 5},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.values)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.values, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSummarizeAndRoundTrip(t *testing.T) {
	var runs []Run
	for i := 1; i <= 10; i++ {
		runs = append(runs, Run{Seed: int64(i), Result: Result{Correct: true, Attempted: 1,
			Metrics: map[string]Metric{"query_p50_ms": {Value: float64(i), Unit: "ms"}}}})
	}
	s := Summarize(runs)["query_p50_ms"]
	if s.Median != 5.5 || s.Q1 != 2.75 || s.Q3 != 8.25 || s.Spread != 1 || s.Unit != "ms" {
		t.Fatalf("summary = %+v", s)
	}
	set := &RunSet{Schema: Schema, Workloads: map[string]*WorkloadSet{"point-warm": {Runs: runs, EndToEnd: Summarize(runs)}}}
	path := filepath.Join(t.TempDir(), "set.json")
	if err := set.Write(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRunSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Workloads["point-warm"].EndToEnd["query_p50_ms"]; got != s {
		t.Fatalf("round trip: %+v, want %+v", got, s)
	}
	set.Schema = "trinit-bench/v6"
	if err := set.Write(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRunSet(path); err == nil {
		t.Error("a run set of another schema was accepted")
	}
}
