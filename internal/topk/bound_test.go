package topk

import (
	"fmt"
	"testing"

	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/relax"
	"trinit/internal/store"
)

// TestKernelEnumeratesTiedBranch is the kernel-level regression for the
// bound/score association. Two rewrites of equal weight W = 20/23 join a
// list of ma entries (probability 1/ma each) with one of mp entries
// (1/mp each), chosen so that (W·a)·p falls one ulp below the realised
// score W·(a·p) in either join order. With k = 1 the first rewrite sets
// the threshold to exactly that score, so every branch of the second
// rewrite ties the k-th score: each must be enumerated, and the ranking
// must equal exhaustive mode's.
func TestKernelEnumeratesTiedBranch(t *testing.T) {
	w := 20.0 / 23
	ma, mp := 0, 0
	for i := 2; i <= 39 && ma == 0; i++ {
		for j := 2; j <= 39; j++ {
			a, p := 1/float64(i), 1/float64(j)
			if s := w * (a * p); (w*a)*p < s && (w*p)*a < s {
				ma, mp = i, j
				break
			}
		}
	}
	if ma == 0 {
		t.Fatal("no list sizes with an association mismatch")
	}
	st := store.New(nil, nil)
	for _, rel := range []string{"sa", "ra"} {
		for i := 0; i < ma; i++ {
			st.AddKG(rdf.Resource(fmt.Sprintf("%s%02d", rel, i)), rdf.Resource(rel), rdf.Resource("Y"))
		}
	}
	for j := 0; j < mp; j++ {
		st.AddKG(rdf.Resource("Y"), rdf.Resource("qb"), rdf.Resource(fmt.Sprintf("Z%02d", j)))
	}
	st.Freeze()
	q := query.MustParse("SELECT ?x WHERE { ?x ra ?y . ?y qb ?z }")
	q.Projection = q.ProjectedVars()
	rewrites := []relax.Rewrite{
		{Query: q, Weight: w},
		{Query: query.MustParse("SELECT ?x WHERE { ?x sa ?y . ?y qb ?z }"), Weight: w},
	}

	inc := New(st, Options{K: 1, Mode: Incremental})
	got, _ := inc.Evaluate(q, rewrites)
	if tr := inc.LastTrace(); tr[1].Status != "evaluated" || tr[1].Answers != ma {
		t.Fatalf("second rewrite: status %q, %d answers recorded, want evaluated with %d (ma=%d mp=%d)",
			tr[1].Status, tr[1].Answers, ma, ma, mp)
	}
	want, _ := New(st, Options{K: 1, Mode: Exhaustive}).Evaluate(q, rewrites)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("incremental %v, exhaustive %v", got, want)
	}
}
