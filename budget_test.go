package trinit

// Engine-level budget contract: WithBudget degrades an expensive query
// into a partial result with a typed error instead of an unbounded
// evaluation, budgeted answers are a sound subset of the unbudgeted
// oracle, a generous budget changes nothing byte-for-byte, and
// SetDefaultBudget applies engine-wide with WithBudget overriding.
// Run with -race.

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// expensiveQuery joins two open patterns over the synthetic world —
// thousands of join branches, many emitted blocks — so every budget
// dimension has room to trip mid-evaluation.
const expensiveQuery = "?x ?p ?y . ?y ?q ?z"

func assertBudgetDegraded(t *testing.T, res *Result, err error) {
	t.Helper()
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatal("budget exhaustion must not masquerade as cancellation")
	}
	if res == nil || !res.Partial {
		t.Fatal("want a non-nil partial result on budget exhaustion")
	}
	budgetTraced := false
	for _, tr := range res.Trace {
		if tr.Status == "budget" {
			budgetTraced = true
		}
	}
	if !budgetTraced {
		t.Fatalf("no trace entry with status budget: %+v", res.Trace)
	}
}

// TestWithBudgetExhaustionMidBlockFlush trips the Blocks dimension: the
// block kernel charges whole frontier blocks as it flushes them, so a
// two-block budget stops the join mid-emission.
func TestWithBudgetExhaustionMidBlockFlush(t *testing.T) {
	e, _ := syntheticWorkload(t)
	res, err := e.QueryContext(context.Background(), expensiveQuery,
		WithMode(ModeExhaustive), WithBudget(Budget{Blocks: 2}))
	assertBudgetDegraded(t, res, err)
	if res.Metrics.BlocksEmitted < 2 {
		t.Fatalf("only %d blocks emitted: the Blocks dimension cannot have been what tripped",
			res.Metrics.BlocksEmitted)
	}
}

// TestWithBudgetExhaustionMidSemiJoin trips the HashProbes dimension
// during join preparation — the semi-join/hash phase probes long before
// blocks flush, so a tiny probe budget stops the query in that phase.
func TestWithBudgetExhaustionMidSemiJoin(t *testing.T) {
	e, _ := syntheticWorkload(t)
	res, err := e.QueryContext(context.Background(), expensiveQuery,
		WithMode(ModeExhaustive), WithBudget(Budget{HashProbes: 50}))
	assertBudgetDegraded(t, res, err)
}

// TestBudgetedAnswersSubsetOfOracle: a budgeted run returns only real
// answers — each present in the unbudgeted oracle with a score no
// higher than the oracle's (max-over-derivations only grows as more of
// the rewrite space is explored).
func TestBudgetedAnswersSubsetOfOracle(t *testing.T) {
	e, queries := syntheticWorkload(t)
	texts := []string{expensiveQuery}
	for _, q := range queries[:10] {
		texts = append(texts, q.Text)
	}
	for _, text := range texts {
		// The oracle needs the *complete* answer set: a budgeted top-k can
		// legitimately surface answers the unbudgeted top-k outranked, but
		// never an answer that does not exist or a score above the truth.
		oracle, err := e.QueryContext(context.Background(), text, WithMode(ModeExhaustive), WithK(1<<20))
		if err != nil {
			t.Fatal(err)
		}
		oracleScore := make(map[string]float64, len(oracle.Answers))
		for _, a := range oracle.Answers {
			oracleScore[bindingsKey(a.Bindings)] = a.Score
		}
		for _, budget := range []int64{200, 2000} {
			res, err := e.QueryContext(context.Background(), text,
				WithMode(ModeExhaustive),
				WithBudget(Budget{JoinBranches: budget}))
			if err != nil && !errors.Is(err, ErrBudgetExhausted) {
				t.Fatalf("%s budget=%d: unexpected error %v", text, budget, err)
			}
			if err != nil && (res == nil || !res.Partial) {
				t.Fatalf("%s budget=%d: exhausted without a partial result", text, budget)
			}
			for _, a := range res.Answers {
				want, ok := oracleScore[bindingsKey(a.Bindings)]
				if !ok {
					t.Fatalf("%s budget=%d: answer %v not in oracle", text, budget, a.Bindings)
				}
				if a.Score > want+1e-12 {
					t.Fatalf("%s budget=%d: answer %v scored %v above oracle %v",
						text, budget, a.Bindings, a.Score, want)
				}
			}
		}
	}
}

func bindingsKey(b map[string]string) string {
	var sb strings.Builder
	for _, v := range []string{"x", "y", "z", "p", "q"} {
		if val, ok := b[v]; ok {
			sb.WriteString(v)
			sb.WriteByte('=')
			sb.WriteString(val)
			sb.WriteByte(';')
		}
	}
	return sb.String()
}

// TestGenerousBudgetByteIdentical: a budget that never trips leaves the
// whole Result — answers, explanations, metrics, trace — untouched.
func TestGenerousBudgetByteIdentical(t *testing.T) {
	e, queries := syntheticWorkload(t)
	for _, q := range queries[:10] {
		// Warm the cache so both runs see identical cache metrics.
		if _, err := e.QueryContext(context.Background(), q.Text); err != nil {
			t.Fatal(err)
		}
		plain, err := e.QueryContext(context.Background(), q.Text)
		if err != nil {
			t.Fatal(err)
		}
		budgeted, err := e.QueryContext(context.Background(), q.Text,
			WithBudget(Budget{JoinBranches: 1 << 40, HashProbes: 1 << 40, Blocks: 1 << 40}))
		if err != nil {
			t.Fatalf("%s: generous budget: %v", q.Text, err)
		}
		if a, b := renderResult(t, plain), renderResult(t, budgeted); a != b {
			t.Fatalf("%s: generous budget perturbed the result\n plain:    %s\n budgeted: %s", q.Text, a, b)
		}
	}
}

// TestDefaultBudgetAppliedAndOverridden: SetDefaultBudget governs
// queries with no explicit budget; WithBudget overrides it per query;
// ServingStats counts each exhaustion.
func TestDefaultBudgetAppliedAndOverridden(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	e, _, err := NewSyntheticEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.SetDefaultBudget(Budget{JoinBranches: 100})
	before := e.ServingStats().BudgetExhausted

	res, qerr := e.QueryContext(context.Background(), expensiveQuery, WithMode(ModeExhaustive))
	assertBudgetDegraded(t, res, qerr)
	if got := e.ServingStats().BudgetExhausted; got != before+1 {
		t.Fatalf("BudgetExhausted = %d, want %d", got, before+1)
	}

	// An explicit generous per-query budget overrides the tight default.
	if _, err := e.QueryContext(context.Background(), expensiveQuery, WithMode(ModeExhaustive),
		WithBudget(Budget{JoinBranches: 1 << 40})); err != nil {
		t.Fatalf("WithBudget did not override the default budget: %v", err)
	}

	// Clearing the default restores unbudgeted evaluation.
	e.SetDefaultBudget(Budget{})
	if _, err := e.QueryContext(context.Background(), expensiveQuery, WithMode(ModeExhaustive)); err != nil {
		t.Fatalf("after clearing default budget: %v", err)
	}
}
