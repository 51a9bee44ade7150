package topk

import (
	"math"
	"math/rand"
	"testing"

	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/relax"
	"trinit/internal/store"
)

// demoXKG builds the Figure 1 KG plus the Figure 3 extension.
func demoXKG() *store.Store {
	st := store.New(nil, nil)
	st.AddKG(rdf.Resource("AlbertEinstein"), rdf.Resource("bornIn"), rdf.Resource("Ulm"))
	st.AddKG(rdf.Resource("Ulm"), rdf.Resource("locatedIn"), rdf.Resource("Germany"))
	st.AddFact(rdf.Resource("AlbertEinstein"), rdf.Resource("bornOn"), rdf.Literal("1879-03-14"), rdf.SourceKG, 1, rdf.NoProv)
	st.AddKG(rdf.Resource("AlfredKleiner"), rdf.Resource("hasStudent"), rdf.Resource("AlbertEinstein"))
	st.AddKG(rdf.Resource("AlbertEinstein"), rdf.Resource("affiliation"), rdf.Resource("IAS"))
	st.AddKG(rdf.Resource("PrincetonUniversity"), rdf.Resource("member"), rdf.Resource("IvyLeague"))
	st.AddFact(rdf.Resource("AlbertEinstein"), rdf.Token("won Nobel for"), rdf.Token("discovery of the photoelectric effect"), rdf.SourceXKG, 0.9, rdf.NoProv)
	st.AddFact(rdf.Resource("IAS"), rdf.Token("housed in"), rdf.Resource("PrincetonUniversity"), rdf.SourceXKG, 0.8, rdf.NoProv)
	st.AddFact(rdf.Resource("AlbertEinstein"), rdf.Token("lectured at"), rdf.Resource("PrincetonUniversity"), rdf.SourceXKG, 0.7, rdf.NoProv)
	st.AddFact(rdf.Resource("AlbertEinstein"), rdf.Token("met his teacher"), rdf.Token("Prof. Kleiner"), rdf.SourceXKG, 0.6, rdf.NoProv)
	st.Freeze()
	return st
}

// figure4 returns the paper's example relaxation rules (rule 1 without the
// type constraints, which the Figure 1 KG does not carry).
func figure4() []*relax.Rule {
	return []*relax.Rule{
		relax.MustParseRule("r1", "?x bornIn ?y => ?x bornIn ?z ; ?z locatedIn ?y", 1.0, "manual"),
		relax.MustParseRule("r2", "?x hasAdvisor ?y => ?y hasStudent ?x", 1.0, "manual"),
		relax.MustParseRule("r3", "?x affiliation ?y => ?x affiliation ?z ; ?z 'housed in' ?y", 0.8, "manual"),
		relax.MustParseRule("r4", "?x affiliation ?y => ?x 'lectured at' ?y", 0.7, "manual"),
	}
}

func evaluate(t *testing.T, st *store.Store, qs string, rules []*relax.Rule, mode Mode, k int) ([]Answer, Metrics) {
	t.Helper()
	q := query.MustParse(qs)
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(rules).Expand(q)
	ev := NewExecutor(st, NewCache(0), Options{K: k, Mode: mode})
	ans, m := ev.Evaluate(q, rewrites)
	return ans, m
}

func bindingText(st *store.Store, a Answer, v string) string {
	return st.Dict().Term(a.Bindings[v]).Text
}

func TestUserAQueryRelaxedToCity(t *testing.T) {
	st := demoXKG()
	// User A: "Who was born in Germany?" — empty on the raw KG because
	// people are born in cities.
	ans, _ := evaluate(t, st, "?x bornIn Germany", nil, Incremental, 10)
	if len(ans) != 0 {
		t.Fatalf("unrelaxed query returned %v", ans)
	}
	ans, _ = evaluate(t, st, "?x bornIn Germany", figure4(), Incremental, 10)
	if len(ans) != 1 {
		t.Fatalf("relaxed answers = %d, want 1", len(ans))
	}
	if got := bindingText(st, ans[0], "x"); got != "AlbertEinstein" {
		t.Fatalf("answer = %s", got)
	}
	if len(ans[0].Derivation.Rewrite.Applied) != 1 || ans[0].Derivation.Rewrite.Applied[0].ID != "r1" {
		t.Fatalf("derivation = %+v", ans[0].Derivation.Rewrite.Applied)
	}
}

func TestUserBQueryInverted(t *testing.T) {
	st := demoXKG()
	// User B: "Who was the advisor of Albert Einstein?"
	ans, _ := evaluate(t, st, "AlbertEinstein hasAdvisor ?x", figure4(), Incremental, 10)
	if len(ans) != 1 {
		t.Fatalf("answers = %d, want 1", len(ans))
	}
	if got := bindingText(st, ans[0], "x"); got != "AlfredKleiner" {
		t.Fatalf("advisor = %s", got)
	}
	if ans[0].Score != 1.0 {
		t.Fatalf("score = %v, want 1.0 (weight-1 rule, unique matches)", ans[0].Score)
	}
}

func TestUserCQueryIvyLeague(t *testing.T) {
	st := demoXKG()
	// User C: "Ivy League university Einstein was affiliated with."
	ans, _ := evaluate(t, st, "SELECT ?x WHERE { AlbertEinstein affiliation ?x . ?x member IvyLeague }", figure4(), Incremental, 10)
	if len(ans) != 1 {
		t.Fatalf("answers = %d, want 1", len(ans))
	}
	if got := bindingText(st, ans[0], "x"); got != "PrincetonUniversity" {
		t.Fatalf("answer = %s", got)
	}
	// Max over derivations: rule 3 (0.8) wins over rule 4 (0.7).
	if math.Abs(ans[0].Score-0.8) > 1e-12 {
		t.Fatalf("score = %v, want 0.8", ans[0].Score)
	}
	if ans[0].Derivation.Rewrite.Applied[0].ID != "r3" {
		t.Fatalf("best derivation rule = %s, want r3", ans[0].Derivation.Rewrite.Applied[0].ID)
	}
}

func TestUserDQueryTokenPattern(t *testing.T) {
	st := demoXKG()
	// User D: "What did Albert Einstein win a Nobel prize for?" — no KG
	// predicate exists; the XKG token triple answers it directly.
	ans, _ := evaluate(t, st, "AlbertEinstein 'won nobel for' ?x", nil, Incremental, 10)
	if len(ans) != 1 {
		t.Fatalf("answers = %d, want 1", len(ans))
	}
	if got := bindingText(st, ans[0], "x"); got != "discovery of the photoelectric effect" {
		t.Fatalf("answer = %q", got)
	}
}

func TestDerivationRecordsTriples(t *testing.T) {
	st := demoXKG()
	ans, _ := evaluate(t, st, "SELECT ?x WHERE { AlbertEinstein affiliation ?x . ?x member IvyLeague }", figure4(), Incremental, 10)
	d := ans[0].Derivation
	if len(d.Triples) != len(d.Rewrite.Query.Patterns) {
		t.Fatalf("derivation triples = %d, patterns = %d", len(d.Triples), len(d.Rewrite.Query.Patterns))
	}
	for i, id := range d.Triples {
		tr := st.Triple(id)
		_ = tr
		if d.PatternProbs[i] <= 0 || d.PatternProbs[i] > 1 {
			t.Fatalf("pattern prob = %v", d.PatternProbs[i])
		}
	}
}

func TestLimitOverridesK(t *testing.T) {
	st := demoXKG()
	ans, _ := evaluate(t, st, "?x ?p ?y LIMIT 3", nil, Incremental, 10)
	if len(ans) != 3 {
		t.Fatalf("answers = %d, want LIMIT 3", len(ans))
	}
}

func TestKTruncation(t *testing.T) {
	st := demoXKG()
	ans, _ := evaluate(t, st, "?x ?p ?y", nil, Exhaustive, 4)
	if len(ans) != 4 {
		t.Fatalf("answers = %d, want 4", len(ans))
	}
	for i := 1; i < len(ans); i++ {
		if ans[i-1].Score < ans[i].Score {
			t.Fatal("answers not sorted by score")
		}
	}
}

func TestFullyBoundQuery(t *testing.T) {
	st := demoXKG()
	ans, _ := evaluate(t, st, "AlbertEinstein bornIn Ulm", nil, Incremental, 10)
	if len(ans) != 1 {
		t.Fatalf("fully bound true query: %d answers", len(ans))
	}
	if ans[0].Score != 1 {
		t.Fatalf("score = %v", ans[0].Score)
	}
	ans, _ = evaluate(t, st, "AlbertEinstein bornIn Germany", nil, Incremental, 10)
	if len(ans) != 0 {
		t.Fatalf("fully bound false query: %d answers", len(ans))
	}
}

func TestIncrementalSkipsLowWeightRewrites(t *testing.T) {
	st := demoXKG()
	// The direct answer exists; weight-0.1 relaxations cannot beat it
	// once k=1 answers are found.
	rules := []*relax.Rule{
		relax.MustParseRule("weak", "?x bornIn ?y => ?x 'lectured at' ?y", 0.1, "manual"),
	}
	_, m := evaluate(t, st, "AlbertEinstein bornIn ?y LIMIT 1", rules, Incremental, 1)
	if m.RewritesSkipped == 0 {
		t.Fatalf("no rewrites skipped: %+v", m)
	}
	_, mx := evaluate(t, st, "AlbertEinstein bornIn ?y LIMIT 1", rules, Exhaustive, 1)
	if mx.RewritesSkipped != 0 {
		t.Fatalf("exhaustive mode skipped rewrites: %+v", mx)
	}
	if mx.RewritesEvaluated <= m.RewritesEvaluated {
		t.Fatalf("exhaustive evaluated %d <= incremental %d", mx.RewritesEvaluated, m.RewritesEvaluated)
	}
}

func TestIncrementalMatchesExhaustiveOnDemo(t *testing.T) {
	st := demoXKG()
	queries := []string{
		"?x bornIn Germany",
		"AlbertEinstein hasAdvisor ?x",
		"SELECT ?x WHERE { AlbertEinstein affiliation ?x . ?x member IvyLeague }",
		"AlbertEinstein 'won nobel for' ?x",
		"?x ?p PrincetonUniversity",
		"?x bornIn ?y . ?y locatedIn ?z",
	}
	for _, qs := range queries {
		inc, _ := evaluate(t, st, qs, figure4(), Incremental, 5)
		exh, _ := evaluate(t, st, qs, figure4(), Exhaustive, 5)
		if len(inc) != len(exh) {
			t.Fatalf("%s: incremental %d answers, exhaustive %d", qs, len(inc), len(exh))
		}
		for i := range inc {
			if math.Abs(inc[i].Score-exh[i].Score) > 1e-12 {
				t.Fatalf("%s: answer %d score %v vs %v", qs, i, inc[i].Score, exh[i].Score)
			}
			for v, id := range inc[i].Bindings {
				if exh[i].Bindings[v] != id {
					t.Fatalf("%s: answer %d binding %s differs", qs, i, v)
				}
			}
		}
	}
}

// Property: on random stores, queries and rules, incremental and exhaustive
// processing return identical top-k answers and scores.
func TestIncrementalEquivalentToExhaustiveProperty(t *testing.T) {
	gen := rand.New(rand.NewSource(99))
	ents := []string{"A", "B", "C", "D", "E"}
	preds := []string{"p", "q", "r"}
	for round := 0; round < 40; round++ {
		st := store.New(nil, nil)
		n := 5 + gen.Intn(25)
		for i := 0; i < n; i++ {
			conf := 0.2 + 0.8*gen.Float64()
			src := rdf.SourceXKG
			if gen.Intn(2) == 0 {
				conf = 1
				src = rdf.SourceKG
			}
			st.AddFact(
				rdf.Resource(ents[gen.Intn(len(ents))]),
				rdf.Resource(preds[gen.Intn(len(preds))]),
				rdf.Resource(ents[gen.Intn(len(ents))]),
				src, conf, rdf.NoProv)
		}
		st.Freeze()
		var rules []*relax.Rule
		for _, pair := range [][2]string{{"p", "q"}, {"q", "r"}, {"r", "p"}} {
			w := 0.3 + 0.7*gen.Float64()
			rules = append(rules, relax.MustParseRule(
				"m"+pair[0]+pair[1],
				"?x "+pair[0]+" ?y => ?x "+pair[1]+" ?y", w, "manual"))
		}
		queries := []string{
			"?x p ?y",
			"?x p ?y . ?y q ?z",
			"A p ?y",
			"?x q B",
		}
		qs := queries[gen.Intn(len(queries))]
		k := 1 + gen.Intn(5)
		q := query.MustParse(qs)
		q.Projection = q.ProjectedVars()
		rewrites := relax.NewExpander(rules).Expand(q)
		inc, _ := NewExecutor(st, NewCache(0), Options{K: k, Mode: Incremental}).Evaluate(q, rewrites)
		exh, _ := NewExecutor(st, NewCache(0), Options{K: k, Mode: Exhaustive}).Evaluate(q, rewrites)
		if len(inc) != len(exh) {
			t.Fatalf("round %d (%s, k=%d): %d vs %d answers", round, qs, k, len(inc), len(exh))
		}
		for i := range inc {
			if math.Abs(inc[i].Score-exh[i].Score) > 1e-9 {
				t.Fatalf("round %d (%s, k=%d): answer %d score %v vs %v", round, qs, k, i, inc[i].Score, exh[i].Score)
			}
		}
	}
}

func TestIncrementalDoesLessWork(t *testing.T) {
	st := demoXKG()
	rules := figure4()
	q := query.MustParse("AlbertEinstein affiliation ?x LIMIT 1")
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(rules).Expand(q)
	_, mi := NewExecutor(st, NewCache(0), Options{K: 1, Mode: Incremental}).Evaluate(q, rewrites)
	_, me := NewExecutor(st, NewCache(0), Options{K: 1, Mode: Exhaustive}).Evaluate(q, rewrites)
	if mi.RewritesEvaluated+mi.RewritesSkipped > me.RewritesEvaluated+1 {
		t.Fatalf("metrics inconsistent: %+v vs %+v", mi, me)
	}
	if mi.JoinBranches > me.JoinBranches {
		t.Fatalf("incremental explored more branches (%d) than exhaustive (%d)", mi.JoinBranches, me.JoinBranches)
	}
}

func TestRepeatedVariableJoin(t *testing.T) {
	st := store.New(nil, nil)
	st.AddKG(rdf.Resource("A"), rdf.Resource("knows"), rdf.Resource("B"))
	st.AddKG(rdf.Resource("B"), rdf.Resource("knows"), rdf.Resource("A"))
	st.AddKG(rdf.Resource("A"), rdf.Resource("knows"), rdf.Resource("C"))
	st.Freeze()
	// Mutual acquaintance: ?x knows ?y . ?y knows ?x.
	ans, _ := evaluate(t, st, "?x knows ?y . ?y knows ?x", nil, Incremental, 10)
	if len(ans) != 2 { // (A,B) and (B,A)
		t.Fatalf("answers = %d, want 2: %v", len(ans), ans)
	}
}

func TestEmptyStoreNoAnswers(t *testing.T) {
	st := store.New(nil, nil)
	st.Freeze()
	ans, m := evaluate(t, st, "?x p ?y", figure4(), Incremental, 5)
	if len(ans) != 0 {
		t.Fatalf("answers from empty store: %v", ans)
	}
	if m.RewritesTotal == 0 {
		t.Fatal("rewrite space empty")
	}
}

func TestDeterministicAnswers(t *testing.T) {
	st := demoXKG()
	var prev []Answer
	for i := 0; i < 5; i++ {
		ans, _ := evaluate(t, st, "?x ?p ?y", figure4(), Incremental, 8)
		if prev != nil {
			if len(ans) != len(prev) {
				t.Fatal("non-deterministic answer count")
			}
			for j := range ans {
				if ans[j].Score != prev[j].Score {
					t.Fatal("non-deterministic scores")
				}
				for v, id := range ans[j].Bindings {
					if prev[j].Bindings[v] != id {
						t.Fatal("non-deterministic bindings")
					}
				}
			}
		}
		prev = ans
	}
}
