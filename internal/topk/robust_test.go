package topk

// Tests of the robustness layer inside the evaluator: per-query cost
// budgets observed at the cancellation poll points (single- and
// multi-pattern joins), the "budget" trace marker, and panic
// propagation through the fault-injection sites. Run with -race.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"trinit/internal/faultinject"
	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/relax"
	"trinit/internal/store"
)

// wideFixture builds a store with rels token predicates of perRel facts
// each plus relaxation rules rewriting the first predicate into every
// other — a rewrite space of rels rewrites whose joins each walk perRel
// branches, so a cancellation or budget poll (every 256 branches) is
// guaranteed mid-rewrite.
func wideFixture(t *testing.T, perRel, rels int, opts Options) (*Executor, *query.Query, []relax.Rewrite) {
	t.Helper()
	st := store.New(nil, nil)
	for r := 0; r < rels; r++ {
		rel := fmt.Sprintf("widerel%d", r)
		for i := 0; i < perRel; i++ {
			conf := 0.1 + 0.8*float64((i*31+r*7)%101)/101
			st.AddFact(rdf.Resource(fmt.Sprintf("E%d_%d", r, i)), rdf.Token(rel),
				rdf.Resource(fmt.Sprintf("F%d", i)), rdf.SourceXKG, conf, rdf.NoProv)
		}
	}
	st.Freeze()
	var rules []*relax.Rule
	for r := 1; r < rels; r++ {
		rules = append(rules, relax.MustParseRule(fmt.Sprintf("w%d", r),
			fmt.Sprintf("?x 'widerel0' ?y => ?x 'widerel%d' ?y", r), 1-0.05*float64(r), "manual"))
	}
	q := query.MustParse("?x 'widerel0' ?y")
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(rules).Expand(q)
	if len(rewrites) != rels {
		t.Fatalf("rewrite space has %d rewrites, want %d", len(rewrites), rels)
	}
	return NewExecutor(st, NewCache(0), opts), q, rewrites
}

// TestBudgetZeroIsUnlimited: the zero Budget means no limits — the run
// is byte-identical to an unbudgeted one and returns no error.
func TestBudgetZeroIsUnlimited(t *testing.T) {
	ev, q, rewrites := wideFixture(t, 200, 4, Options{K: 5})
	oracle, _, err := ev.Run(context.Background(), q, rewrites, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ev.Run(context.Background(), q, rewrites, RunConfig{Budget: Budget{}})
	if err != nil {
		t.Fatalf("zero budget: %v", err)
	}
	if !reflect.DeepEqual(got, oracle) {
		t.Fatal("zero-budget answers differ from unbudgeted")
	}
}

// TestBudgetGenerousByteIdentical: a budget large enough to never
// trip must not perturb the result in any way.
func TestBudgetGenerousByteIdentical(t *testing.T) {
	ev, q, rewrites := wideFixture(t, 300, 5, Options{K: 5})
	oracle, om, err := ev.Run(context.Background(), q, rewrites, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, gm, err := ev.Run(context.Background(), q, rewrites, RunConfig{
		Budget: Budget{JoinBranches: 1 << 40, HashProbes: 1 << 40, Blocks: 1 << 40},
	})
	if err != nil {
		t.Fatalf("generous budget: %v", err)
	}
	if !reflect.DeepEqual(got, oracle) {
		t.Fatal("generous-budget answers differ from unbudgeted")
	}
	if gm.JoinBranches != om.JoinBranches {
		t.Fatalf("JoinBranches %d with budget, %d without", gm.JoinBranches, om.JoinBranches)
	}
}

// TestBudgetExhaustionSerial: a tiny join-branch budget stops a run
// early with ErrBudgetExhausted; the answers found so far are
// returned and the unevaluated rewrites are traced "budget".
func TestBudgetExhaustionSerial(t *testing.T) {
	// 6 rewrites x 1200 branches each: the budget trips inside the first
	// rewrite's join (poll interval is 256 branches).
	ev, q, rewrites := wideFixture(t, 1200, 6, Options{K: 3, Mode: Exhaustive})
	ans, m, err := ev.Run(context.Background(), q, rewrites, RunConfig{
		Budget: Budget{JoinBranches: 300},
	})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if m.JoinBranches >= 1200*6 {
		t.Fatalf("JoinBranches = %d: budget did not stop the run early", m.JoinBranches)
	}
	_ = ans // partial answers may legitimately be empty this early
	budgetTraced := false
	for _, tr := range ev.LastTrace() {
		switch tr.Status {
		case "budget":
			budgetTraced = true
		case "canceled":
			t.Fatalf("budget stop mislabelled as canceled: %+v", tr)
		}
	}
	if !budgetTraced {
		t.Fatal("no trace entry with status budget")
	}
}

// joinFixture builds a store where a two-pattern chain query drives
// the hash-join kernel through many probes and block flushes — the
// work the HashProbes and Blocks budget dimensions meter. The rewrite
// space is just the identity rewrite; exhaustion must therefore be
// detected mid-join, at the every-256-branches poll.
func joinFixture(t *testing.T, n int) (*Executor, *query.Query, []relax.Rewrite) {
	t.Helper()
	st := store.New(nil, nil)
	for i := 0; i < n; i++ {
		conf := 0.1 + 0.8*float64((i*31)%101)/101
		mid := rdf.Resource(fmt.Sprintf("B%d", i%50))
		st.AddFact(rdf.Resource(fmt.Sprintf("A%d", i)), rdf.Token("jrel0"), mid, rdf.SourceXKG, conf, rdf.NoProv)
		st.AddFact(mid, rdf.Token("jrel1"), rdf.Resource(fmt.Sprintf("C%d", i)), rdf.SourceXKG, 1-conf/2, rdf.NoProv)
	}
	st.Freeze()
	q := query.MustParse("?x 'jrel0' ?y . ?y 'jrel1' ?z")
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(nil).Expand(q)
	return NewExecutor(st, NewCache(0), Options{K: 5, Mode: Exhaustive}), q, rewrites
}

// TestBudgetHashProbesAndBlocks: the other two budget dimensions trip
// on their own counters, mid-join on a chain query.
func TestBudgetHashProbesAndBlocks(t *testing.T) {
	ev, q, rewrites := joinFixture(t, 2000)
	_, m, err := ev.Run(context.Background(), q, rewrites, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.HashProbes < 200 || m.BlocksEmitted < 4 {
		t.Fatalf("fixture too small to meter: probes=%d blocks=%d", m.HashProbes, m.BlocksEmitted)
	}
	if _, _, err := ev.Run(context.Background(), q, rewrites, RunConfig{
		Budget: Budget{HashProbes: 100},
	}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("hash-probe budget: err = %v, want ErrBudgetExhausted", err)
	}
	if _, _, err := ev.Run(context.Background(), q, rewrites, RunConfig{
		Budget: Budget{Blocks: 2},
	}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("block budget: err = %v, want ErrBudgetExhausted", err)
	}
}

// TestBudgetAnswersSubsetOfOracle: every answer a budgeted run returns
// must be a real answer — present in the unbudgeted oracle with a
// score no higher than the oracle's (max-over-derivations can only
// grow as more rewrites are explored).
func TestBudgetAnswersSubsetOfOracle(t *testing.T) {
	ev, q, rewrites := wideFixture(t, 400, 6, Options{K: 10, Mode: Exhaustive})
	oracle, _, err := ev.Run(context.Background(), q, rewrites, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	oracleScore := make(map[string]float64, len(oracle))
	for _, a := range oracle {
		oracleScore[bindKey(a)] = a.Score
	}
	for _, budget := range []int64{300, 900, 2000} {
		ans, _, err := ev.Run(context.Background(), q, rewrites, RunConfig{
			Budget: Budget{JoinBranches: budget},
		})
		if err != nil && !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("budget %d: unexpected error %v", budget, err)
		}
		for _, a := range ans {
			want, ok := oracleScore[bindKey(a)]
			if !ok {
				t.Fatalf("budget %d: answer %v not in unbudgeted oracle", budget, a.Bindings)
			}
			if a.Score > want+1e-12 {
				t.Fatalf("budget %d: answer %v scored %v above oracle %v", budget, a.Bindings, a.Score, want)
			}
		}
	}
}

func bindKey(a Answer) string {
	key := ""
	for _, v := range []string{"x", "y"} {
		key += fmt.Sprintf("%s=%d;", v, a.Bindings[v])
	}
	return key
}

// TestSerialPanicPropagates: Run has no panic boundary of its own — the
// panic unwinds out of Run for the engine-level recover to catch. This
// pins the contract the engine's own boundary depends on.
func TestSerialPanicPropagates(t *testing.T) {
	ev, q, rewrites := wideFixture(t, 50, 3, Options{K: 5})
	s := faultinject.NewScript().PanicOn(faultinject.SiteRewriteEval, "1", 1, "serial crash")
	defer s.Install()()
	defer func() {
		if recover() == nil {
			t.Fatal("serial run swallowed the panic")
		}
	}()
	_, _, _ = ev.Run(context.Background(), q, rewrites, RunConfig{})
}
