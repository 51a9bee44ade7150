package topk

import (
	"fmt"
	"testing"

	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/relax"
	"trinit/internal/store"
)

// skewedStore builds a store where query-text pattern order is a bad join
// order: predicate p has many triples, predicate q exactly one.
func skewedStore(fanout int) *store.Store {
	st := store.New(nil, nil)
	for i := 0; i < fanout; i++ {
		st.AddKG(rdf.Resource(fmt.Sprintf("S%03d", i)), rdf.Resource("p"), rdf.Resource(fmt.Sprintf("O%03d", i)))
	}
	st.AddKG(rdf.Resource("S000"), rdf.Resource("q"), rdf.Resource("Z"))
	st.Freeze()
	return st
}

// TestPlannerReducesJoinWork: with the unselective pattern first in
// query text, selectivity ordering must start the join from the
// single-match pattern, so the join explores one binding per pattern
// where a text-order join would start from all 40 entries of the first
// list; answers match the reference evaluator, which joins in text order.
func TestPlannerReducesJoinWork(t *testing.T) {
	st := skewedStore(40)
	// Text order: huge ?x p ?y first, then the single-match ?x q Z.
	const qs = "SELECT ?x ?y WHERE { ?x p ?y . ?x q Z }"
	q := query.MustParse(qs)
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(nil).Expand(q)
	ev := NewExecutor(st, NewCache(0), Options{K: 10, Mode: Exhaustive})
	answers, m := ev.Evaluate(q, rewrites)
	if len(answers) != 1 {
		t.Fatalf("answers = %d, want 1", len(answers))
	}
	if plan := ev.LastTrace()[0].Plan; fmt.Sprint(plan) != "[1 0]" {
		t.Errorf("plan = %v, want [1 0]", plan)
	}
	if m.JoinBranches != 2 || m.SortedAccesses != 2 {
		t.Errorf("JoinBranches = %d, SortedAccesses = %d, want 2 each", m.JoinBranches, m.SortedAccesses)
	}
	checkReference(t, st, qs, nil, 10)
}

// TestPlannerEarlyAbortSkipsListBuilds: when the most selective pattern of
// a rewrite has no matches, the other pattern lists must not be built.
func TestPlannerEarlyAbortSkipsListBuilds(t *testing.T) {
	st := skewedStore(40)
	// ?x r Z matches nothing (no r predicate); ?x p ?y matches 40.
	q := query.MustParse("SELECT ?x ?y WHERE { ?x p ?y . ?x r Z }")
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(nil).Expand(q)

	ev := NewExecutor(st, NewCache(0), Options{K: 10})
	ans, m := ev.Evaluate(q, rewrites)
	if len(ans) != 0 {
		t.Fatalf("answers = %d, want 0", len(ans))
	}
	if m.PatternsMatched != 1 {
		t.Errorf("built %d pattern lists, want 1 (early abort on the empty selective pattern)", m.PatternsMatched)
	}
	trace := ev.LastTrace()
	if len(trace) != 1 || trace[0].Status != "no matches" {
		t.Fatalf("trace = %+v", trace)
	}
	// The planner must have put the provably-empty pattern first.
	if len(trace[0].Plan) == 0 || trace[0].Plan[0] != 1 {
		t.Errorf("plan = %v, want the selective pattern (index 1) first", trace[0].Plan)
	}
}

// TestPlanRecordedInTraceAndDerivation: the processed pattern order is
// surfaced in the rewrite trace.
func TestPlanRecordedInTraceAndDerivation(t *testing.T) {
	st := skewedStore(12)
	q := query.MustParse("SELECT ?x ?y WHERE { ?x p ?y . ?x q Z }")
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(nil).Expand(q)
	ev := NewExecutor(st, NewCache(0), Options{K: 10})
	ans, _ := ev.Evaluate(q, rewrites)
	if len(ans) != 1 {
		t.Fatalf("answers = %d", len(ans))
	}
	wantOrder := []int{1, 0} // selective ?x q Z joins first
	gotTrace := ev.LastTrace()[0].Plan
	if len(gotTrace) != 2 || gotTrace[0] != wantOrder[0] || gotTrace[1] != wantOrder[1] {
		t.Errorf("trace plan = %v, want %v", gotTrace, wantOrder)
	}
}

// TestEstimateSelectivity sanity-checks the index-derived estimates that
// drive the planner.
func TestEstimateSelectivity(t *testing.T) {
	st := demoXKG()
	est := func(qs string) int {
		p := query.MustParse(qs).Patterns[0]
		return estimateSelectivity(st, p, 0.34, nil)
	}
	if got := est("?x bornIn ?y"); got != 1 {
		t.Errorf("est(?x bornIn ?y) = %d, want 1", got)
	}
	if got := est("?x ?p ?y"); got != st.Len() {
		t.Errorf("est(?x ?p ?y) = %d, want %d", got, st.Len())
	}
	if got := est("?x NoSuchResource ?y"); got != 0 {
		t.Errorf("est over unknown resource = %d, want 0", got)
	}
	// A token slot refines through the inverted index: 'housed in'
	// occurs in exactly one triple.
	if got := est("?x 'housed in' ?y"); got < 1 || got > 2 {
		t.Errorf("est(?x 'housed in' ?y) = %d, want a tight bound near 1", got)
	}
	if got := est("?x 'completely absent phrase qqq' ?y"); got != 0 {
		t.Errorf("est over unknown token = %d, want 0", got)
	}
}

// TestPlannerMatchesNoPlanOnWorkload: planning is a pure optimisation —
// answers and scores must match the unplanned, query-text-order
// reference evaluator across a mixed workload, in both processing modes.
func TestPlannerMatchesNoPlanOnWorkload(t *testing.T) {
	st := demoXKG()
	queries := []string{
		"?x bornIn Germany",
		"SELECT ?x WHERE { AlbertEinstein affiliation ?x . ?x member IvyLeague }",
		"?x bornIn ?y . ?y locatedIn ?z",
		"AlbertEinstein 'won nobel for' ?x",
	}
	for _, qs := range queries {
		checkReference(t, st, qs, figure4(), 5)
	}
}
