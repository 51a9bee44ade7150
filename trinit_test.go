package trinit

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestEngineLifecycle(t *testing.T) {
	e := New(nil)
	if err := e.AddKGFact("AlbertEinstein", "bornIn", "Ulm"); err != nil {
		t.Fatal(err)
	}
	if err := e.AddKGLiteral("AlbertEinstein", "bornOn", "1879-03-14"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query("?x bornIn Ulm"); err == nil {
		t.Fatal("Query before Freeze succeeded")
	}
	e.Freeze()
	if !e.Frozen() {
		t.Fatal("not frozen")
	}
	if err := e.AddKGFact("A", "p", "B"); err == nil {
		t.Fatal("AddKGFact after Freeze succeeded")
	}
	res, err := e.Query("?x bornIn Ulm")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || res.Answers[0].Bindings["x"] != "AlbertEinstein" {
		t.Fatalf("answers = %+v", res.Answers)
	}
}

func TestEngineQueryParseError(t *testing.T) {
	e := New(nil)
	e.Freeze()
	if _, err := e.Query("not a 'query"); err == nil {
		t.Fatal("bad query accepted")
	}
}

func TestDemoEngineUsersAToD(t *testing.T) {
	e := NewDemoEngine()
	for _, dq := range DemoQueries() {
		res, err := e.Query(dq.Query)
		if err != nil {
			t.Fatalf("user %s: %v", dq.User, err)
		}
		if len(res.Answers) == 0 {
			t.Fatalf("user %s: no answers", dq.User)
		}
		var got string
		for _, v := range res.Answers[0].Bindings {
			got = v
		}
		if got != dq.Want {
			t.Errorf("user %s: answer = %q, want %q", dq.User, got, dq.Want)
		}
	}
}

func TestDemoEngineExplanations(t *testing.T) {
	e := NewDemoEngine()
	res, err := e.Query("SELECT ?x WHERE { AlbertEinstein affiliation ?x . ?x member IvyLeague }")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	ex := res.Answers[0].Explanation
	if len(ex.Rules) == 0 {
		t.Fatal("explanation lists no rules despite relaxation")
	}
	if len(ex.KGTriples) == 0 || len(ex.XKGTriples) == 0 {
		t.Fatalf("explanation triples: KG=%d XKG=%d", len(ex.KGTriples), len(ex.XKGTriples))
	}
	if ex.XKGTriples[0].Source != "XKG" || ex.XKGTriples[0].Doc == "" {
		t.Fatalf("XKG evidence = %+v", ex.XKGTriples[0])
	}
	if !strings.Contains(ex.Text, "PrincetonUniversity") {
		t.Errorf("explanation text = %q", ex.Text)
	}
	if len(res.Notices) == 0 {
		t.Error("no rule notices for a relaxed query")
	}
}

func TestEngineAddRuleValidation(t *testing.T) {
	e := New(nil)
	if err := e.AddRule("bad", "no arrow", 1.0); err == nil {
		t.Fatal("invalid rule accepted")
	}
	if err := e.AddRule("ok", "?x p ?y => ?x q ?y", 0.5); err != nil {
		t.Fatal(err)
	}
	if got := e.Rules(); len(got) != 1 || got[0].ID != "ok" {
		t.Fatalf("Rules = %v", got)
	}
	e.ClearRules()
	if len(e.Rules()) != 0 {
		t.Fatal("ClearRules failed")
	}
}

func TestEngineExtendAndMine(t *testing.T) {
	e := New(nil)
	for _, f := range [][3]string{
		{"AldenAckermann", "affiliation", "NorthfordUniversity"},
		{"BertaBrenner", "affiliation", "SouthburgUniversity"},
		{"ClovisClaussen", "affiliation", "NorthfordUniversity"},
	} {
		if err := e.AddKGFact(f[0], f[1], f[2]); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := e.ExtendFromDocuments([]Document{
		{ID: "d1", Text: "Alden Ackermann worked at Northford University. Berta Brenner worked at Southburg University."},
		{ID: "d2", Text: "Dorian Dittmar worked at Northford University."},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TriplesAdded == 0 || stats.LinkedSubjects == 0 {
		t.Fatalf("extend stats = %+v", stats)
	}
	e.Freeze()
	if _, err := e.MineRules(MiningConfig{MinSupport: 2, MinWeight: 0.1}); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, r := range e.Rules() {
		if strings.Contains(r.ID, "affiliation") && strings.Contains(r.ID, "worked at") {
			found = true
		}
	}
	if !found {
		t.Fatalf("alignment rule not mined: %v", e.Rules())
	}
	// The mined rule lets an affiliation query reach the corpus-only
	// fact about Dorian Dittmar.
	res, err := e.Query("?x affiliation NorthfordUniversity")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, a := range res.Answers {
		names = append(names, a.Bindings["x"])
	}
	joined := strings.Join(names, ",")
	// Alden is a KG affiliate; Dorian exists only in the corpus and has
	// no KG entry to link to, so he surfaces as a token phrase.
	if !strings.Contains(joined, "AldenAckermann") || !strings.Contains(joined, "Dorian Dittmar") {
		t.Fatalf("answers = %v, want KG and corpus-only affiliates", names)
	}
}

func TestEngineMineRequiresFrozen(t *testing.T) {
	e := New(nil)
	if _, err := e.MineRules(DefaultMiningConfig()); err == nil {
		t.Fatal("MineRules before Freeze succeeded")
	}
}

func TestEngineOperators(t *testing.T) {
	e := New(nil)
	e.AddOperator(func(*Engine) []RuleSpec {
		return []RuleSpec{{ID: "op1", Rule: "?x p ?y => ?x q ?y", Weight: 0.4}}
	})
	if err := e.RunOperators(); err != nil {
		t.Fatal(err)
	}
	rules := e.Rules()
	if len(rules) != 1 || rules[0].Origin != "operator" {
		t.Fatalf("rules = %v", rules)
	}
	e.AddOperator(func(*Engine) []RuleSpec {
		return []RuleSpec{{ID: "bad", Rule: "broken", Weight: 0.4}}
	})
	if err := e.RunOperators(); err == nil {
		t.Fatal("operator with invalid rule accepted")
	}
}

func TestEngineAddTokenTriple(t *testing.T) {
	e := New(nil)
	if err := e.AddKGFact("AlbertEinstein", "bornIn", "Ulm"); err != nil {
		t.Fatal(err)
	}
	if err := e.AddTokenTriple("AlbertEinstein", "won Nobel for", "discovery of the photoelectric effect", 0.9, "doc1", "Einstein won a Nobel..."); err != nil {
		t.Fatal(err)
	}
	if err := e.AddTokenTriple("A", "p", "B", 1.5, "", ""); err == nil {
		t.Fatal("bad confidence accepted")
	}
	e.Freeze()
	res, err := e.Query("AlbertEinstein 'won nobel for' ?x")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("answers = %v", res.Answers)
	}
	// Known-entity subject was linked to the resource.
	if res.Answers[0].Explanation.XKGTriples[0].Doc != "doc1" {
		t.Fatalf("provenance = %+v", res.Answers[0].Explanation.XKGTriples[0])
	}
}

func TestEngineComplete(t *testing.T) {
	e := NewDemoEngine()
	got := e.Complete("Albert", 5)
	if len(got) == 0 || got[0].Text != "AlbertEinstein" {
		t.Fatalf("completions = %v", got)
	}
	if New(nil).Complete("x", 5) != nil {
		t.Fatal("Complete on unfrozen engine returned data")
	}
}

func TestEngineStats(t *testing.T) {
	e := NewDemoEngine()
	s := e.Stats()
	if s.KGTriples != 8 || s.XKGTriples != 4 || s.Rules != 4 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEngineSuggestions(t *testing.T) {
	e := New(nil)
	for _, f := range [][3]string{
		{"Alice", "worksFor", "Acme"},
		{"Bob", "worksFor", "Globex"},
	} {
		if err := e.AddKGFact(f[0], f[1], f[2]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddTokenTriple("Alice", "works at", "Acme", 0.8, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := e.AddTokenTriple("Bob", "works at", "Globex", 0.8, "", ""); err != nil {
		t.Fatal(err)
	}
	e.Freeze()
	res, err := e.Query("?x 'works at' ?y")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suggestions) == 0 || res.Suggestions[0].Resource != "worksFor" {
		t.Fatalf("suggestions = %+v", res.Suggestions)
	}
}

func TestEngineMetricsExposed(t *testing.T) {
	e := NewDemoEngine()
	res, err := e.Query("?x bornIn Germany . Germany type country")
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.RewritesTotal == 0 || res.Metrics.SortedAccesses == 0 {
		t.Fatalf("metrics = %+v", res.Metrics)
	}
}

func TestSyntheticEngineEndToEnd(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.People = 40
	e, queries, err := NewSyntheticEngine(cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) == 0 {
		t.Fatal("no workload queries")
	}
	if e.Stats().XKGTriples == 0 {
		t.Fatal("no XKG triples in synthetic engine")
	}
	answered := 0
	for _, q := range queries {
		res, err := e.Query(q.Text + " LIMIT 5")
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		for _, a := range res.Answers {
			if q.Judgments[a.Bindings[q.Var]] > 0 {
				answered++
				break
			}
		}
	}
	if answered == 0 {
		t.Fatal("no workload query returned a relevant answer")
	}
}

// TestExhaustiveOptionMatchesIncremental: on one engine, the per-query
// WithMode(ModeExhaustive) ranks the full synthetic workload exactly like
// the default incremental mode — answers, scores, explanations,
// suggestions and notices byte for byte — and never skips a rewrite.
func TestExhaustiveOptionMatchesIncremental(t *testing.T) {
	e, queries := syntheticWorkload(t)
	for _, q := range queries {
		inc, err := e.QueryContext(context.Background(), q.Text)
		if err != nil {
			t.Fatal(err)
		}
		exh, err := e.QueryContext(context.Background(), q.Text, WithMode(ModeExhaustive))
		if err != nil {
			t.Fatal(err)
		}
		if a, b := renderMmap(t, inc), renderMmap(t, exh); a != b {
			t.Fatalf("%s: exhaustive differs from incremental\n exhaustive:  %s\n incremental: %s", q.ID, b, a)
		}
		if exh.Metrics.RewritesSkipped != 0 {
			t.Fatalf("%s: exhaustive mode skipped %d rewrites", q.ID, exh.Metrics.RewritesSkipped)
		}
	}
}

func TestEngineConcurrentUse(t *testing.T) {
	e := NewDemoEngine()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				switch j % 4 {
				case 0:
					if _, err := e.Query("AlbertEinstein hasAdvisor ?x"); err != nil {
						errs <- err
					}
				case 1:
					e.Complete("Al", 5)
				case 2:
					e.Stats()
				default:
					id := fmt.Sprintf("cc-%d-%d", i, j)
					if err := e.AddRule(id, "?x p"+id+" ?y => ?x q ?y", 0.5); err != nil {
						errs <- err
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestEngineSaveLoadRoundTrip(t *testing.T) {
	src := NewDemoEngine()
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Frozen() {
		t.Fatal("loaded engine unexpectedly frozen")
	}
	restored.Freeze()
	a := src.Stats()
	b := restored.Stats()
	if a.Triples != b.Triples || a.KGTriples != b.KGTriples || a.Rules != b.Rules {
		t.Fatalf("stats differ: %+v vs %+v", a, b)
	}
	// The restored engine must answer the demo queries identically.
	for _, dq := range DemoQueries() {
		r1, err := src.Query(dq.Query)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := restored.Query(dq.Query)
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Answers) != len(r2.Answers) {
			t.Fatalf("user %s: answer counts differ", dq.User)
		}
		for i := range r1.Answers {
			if r1.Answers[i].Score != r2.Answers[i].Score {
				t.Fatalf("user %s: scores differ at %d", dq.User, i)
			}
		}
	}
}

func TestEngineSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "demo.tnt")
	if err := NewDemoEngine().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	e, err := LoadFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Freeze()
	if e.Stats().Triples != 12 {
		t.Fatalf("triples = %d", e.Stats().Triples)
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.tnt"), nil); err == nil {
		t.Fatal("loading missing file succeeded")
	}
}

func TestEngineAsk(t *testing.T) {
	e := NewDemoEngine()
	res, translated, err := e.Ask("What did Einstein win a Nobel prize for?")
	if err != nil {
		t.Fatal(err)
	}
	if translated != "AlbertEinstein 'won prize for' ?a" {
		t.Fatalf("translated = %q", translated)
	}
	if len(res.Answers) == 0 || res.Answers[0].Bindings["a"] != "discovery of the photoelectric effect" {
		t.Fatalf("answers = %+v", res.Answers)
	}
	if _, _, err := e.Ask("untranslatable gibberish"); err == nil {
		t.Fatal("untranslatable question accepted")
	}
	if _, _, err := New(nil).Ask("Who was born in Ulm?"); err == nil {
		t.Fatal("Ask on unfrozen engine succeeded")
	}
}

func TestMineRulesExtendedSources(t *testing.T) {
	e := New(nil)
	// A KG whose livesIn facts follow bornIn ∘ locatedIn, with token
	// phrases for the paraphrase and relatedness operators.
	kg := [][3]string{
		{"A", "bornIn", "Ulm"}, {"B", "bornIn", "Ulm"},
		{"Ulm", "locatedIn", "Germany"},
		{"A", "livesIn", "Germany"}, {"B", "livesIn", "Germany"},
	}
	for _, f := range kg {
		if err := e.AddKGFact(f[0], f[1], f[2]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddTokenTriple("A", "worked at", "X", 0.8, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := e.AddTokenTriple("B", "was employed by", "Y", 0.8, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := e.AddTokenTriple("C", "was born in", "Ulm", 0.8, "", ""); err != nil {
		t.Fatal(err)
	}
	e.Freeze()
	specs, err := e.MineRules(MiningConfig{
		MinSupport:  1,
		MinWeight:   0.05,
		HornRules:   true,
		Paraphrases: true,
		Relatedness: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	origins := make(map[string]int)
	for _, s := range specs {
		origins[s.Origin]++
	}
	for _, want := range []string{"horn", "paraphrase", "relatedness"} {
		if origins[want] == 0 {
			t.Errorf("no %s rules mined (origins: %v)", want, origins)
		}
	}
}

func TestQueryTrace(t *testing.T) {
	e := NewDemoEngine()
	res, err := e.Query("SELECT ?x WHERE { AlbertEinstein affiliation ?x . ?x member IvyLeague }")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace entries")
	}
	// The first entry is the original query with weight 1 and no rules.
	first := res.Trace[0]
	if first.Weight != 1 || len(first.Rules) != 0 {
		t.Fatalf("first trace entry = %+v", first)
	}
	statuses := make(map[string]int)
	evaluatedWithAnswers := 0
	for _, tr := range res.Trace {
		statuses[tr.Status]++
		if tr.Status == "evaluated" && tr.Answers > 0 {
			evaluatedWithAnswers++
			if len(tr.PatternMatches) != 3 && len(tr.PatternMatches) != 2 {
				t.Errorf("pattern match sizes = %v", tr.PatternMatches)
			}
		}
		if tr.Status == "" {
			t.Errorf("trace entry without status: %+v", tr)
		}
	}
	if evaluatedWithAnswers == 0 {
		t.Fatalf("no evaluated rewrite produced answers; statuses: %v", statuses)
	}
	// The original query joins to nothing (user C's KG gap): its trace
	// entry must show zero answers despite non-empty pattern lists.
	if first.Answers != 0 {
		t.Errorf("original query produced %d answers, want 0", first.Answers)
	}
}

func TestEngineOptionsMaxRewrites(t *testing.T) {
	opts := &Options{MaxRewrites: 2}
	base := NewDemoEngine()
	// Rebuild a demo-like engine with constrained options.
	limited := New(opts)
	if err := limited.AddKGFact("AlfredKleiner", "hasStudent", "AlbertEinstein"); err != nil {
		t.Fatal(err)
	}
	limited.Freeze()
	for _, r := range base.Rules() {
		if err := limited.AddRule(r.ID, ruleBody(r.Rule), r.Weight); err != nil {
			t.Fatalf("rule %s: %v", r.ID, err)
		}
	}
	res, err := limited.Query("AlbertEinstein hasAdvisor ?x")
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.RewritesTotal > 2 {
		t.Fatalf("MaxRewrites ignored: %d rewrites", res.Metrics.RewritesTotal)
	}
}

// ruleBody strips the " [w=..., origin]" suffix RuleSpec.Rule carries.
func ruleBody(s string) string {
	if i := strings.LastIndex(s, " ["); i > 0 {
		return s[:i]
	}
	return s
}

func TestEngineMinTokenSimilarity(t *testing.T) {
	strict := New(&Options{MinTokenSimilarity: 0.99})
	if err := strict.AddTokenTriple("A", "won a great prize", "B", 0.9, "", ""); err != nil {
		t.Fatal(err)
	}
	strict.Freeze()
	res, err := strict.Query("?x 'won prize' ?y")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 0 {
		t.Fatalf("strict similarity still matched: %+v", res.Answers)
	}
	loose := New(&Options{MinTokenSimilarity: 0.3})
	if err := loose.AddTokenTriple("A", "won a great prize", "B", 0.9, "", ""); err != nil {
		t.Fatal(err)
	}
	loose.Freeze()
	res, err = loose.Query("?x 'won prize' ?y")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("loose similarity missed: %+v", res.Answers)
	}
}

func TestEngineRemoveRule(t *testing.T) {
	e := NewDemoEngine()
	if !e.RemoveRule("fig4-2") {
		t.Fatal("existing rule not removed")
	}
	if e.RemoveRule("fig4-2") {
		t.Fatal("removed rule removed twice")
	}
	if len(e.Rules()) != 3 {
		t.Fatalf("rules = %d", len(e.Rules()))
	}
	// Without the inversion rule, user B's query fails again.
	res, err := e.Query("AlbertEinstein hasAdvisor ?x")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 0 {
		t.Fatalf("answers after rule removal = %v", res.Answers)
	}
}
