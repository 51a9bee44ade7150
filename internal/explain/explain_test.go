package explain

import (
	"strings"
	"testing"

	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/relax"
	"trinit/internal/store"
	"trinit/internal/topk"
)

func demoXKG() *store.Store {
	st := store.New(nil, nil)
	st.AddKG(rdf.Resource("AlbertEinstein"), rdf.Resource("affiliation"), rdf.Resource("IAS"))
	st.AddKG(rdf.Resource("PrincetonUniversity"), rdf.Resource("member"), rdf.Resource("IvyLeague"))
	prov := st.Prov().Add(rdf.Prov{Doc: "clueweb-17", Sentence: "The IAS was housed in Princeton."})
	st.AddFact(rdf.Resource("IAS"), rdf.Token("housed in"), rdf.Resource("PrincetonUniversity"), rdf.SourceXKG, 0.8, prov)
	st.Freeze()
	return st
}

func userCAnswer(t *testing.T, st *store.Store) (*query.Query, topk.Answer) {
	t.Helper()
	q := query.MustParse("SELECT ?x WHERE { AlbertEinstein affiliation ?x . ?x member IvyLeague }")
	rules := []*relax.Rule{
		relax.MustParseRule("r3", "?x affiliation ?y => ?x affiliation ?z ; ?z 'housed in' ?y", 0.8, "manual"),
	}
	rewrites := relax.NewExpander(rules).Expand(q)
	ans, _ := topk.NewExecutor(st, topk.NewCache(0), topk.Options{K: 5}).Evaluate(q, rewrites)
	if len(ans) != 1 {
		t.Fatalf("answers = %d, want 1", len(ans))
	}
	return q, ans[0]
}

func TestExplainSplitsKGAndXKG(t *testing.T) {
	st := demoXKG()
	q, a := userCAnswer(t, st)
	ex := Explain(st, q, a)
	if len(ex.KGTriples) != 2 {
		t.Fatalf("KG triples = %d, want 2 (affiliation + member)", len(ex.KGTriples))
	}
	if len(ex.XKGTriples) != 1 {
		t.Fatalf("XKG triples = %d, want 1 (housed in)", len(ex.XKGTriples))
	}
	x := ex.XKGTriples[0]
	if x.Doc != "clueweb-17" || !strings.Contains(x.Sentence, "housed in Princeton") {
		t.Fatalf("XKG provenance = %+v", x)
	}
	if x.Confidence != 0.8 {
		t.Fatalf("XKG conf = %v", x.Confidence)
	}
}

func TestExplainReportsRules(t *testing.T) {
	st := demoXKG()
	q, a := userCAnswer(t, st)
	ex := Explain(st, q, a)
	if len(ex.Rules) != 1 || ex.Rules[0].ID != "r3" {
		t.Fatalf("rules = %+v", ex.Rules)
	}
	if ex.Weight != 0.8 {
		t.Fatalf("derivation weight = %v", ex.Weight)
	}
	if ex.OriginalQuery == ex.RewrittenQuery {
		t.Fatal("rewritten query equals original despite relaxation")
	}
	if !strings.Contains(ex.Text, "?x = PrincetonUniversity") {
		t.Fatalf("bindings missing from the text:\n%s", ex.Text)
	}
}

func TestExplainNoRelaxation(t *testing.T) {
	st := demoXKG()
	q := query.MustParse("AlbertEinstein affiliation ?x")
	rewrites := relax.NewExpander(nil).Expand(q)
	ans, _ := topk.NewExecutor(st, topk.NewCache(0), topk.Options{K: 5}).Evaluate(q, rewrites)
	if len(ans) != 1 {
		t.Fatalf("answers = %d", len(ans))
	}
	ex := Explain(st, q, ans[0])
	if len(ex.Rules) != 0 {
		t.Fatalf("rules = %v, want none", ex.Rules)
	}
	if len(ex.KGTriples) != 1 || len(ex.XKGTriples) != 0 {
		t.Fatalf("triples: KG=%d XKG=%d", len(ex.KGTriples), len(ex.XKGTriples))
	}
	if !strings.Contains(ex.Text, "no relaxation needed") {
		t.Errorf("Text = %q", ex.Text)
	}
}

func TestExplanationString(t *testing.T) {
	st := demoXKG()
	q, a := userCAnswer(t, st)
	s := Explain(st, q, a).Text
	for _, want := range []string{
		"?x = PrincetonUniversity",
		"relaxations invoked",
		"r3",
		"KG triples:",
		"XKG triples:",
		"clueweb-17",
		"housed in",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("explanation text missing %q:\n%s", want, s)
		}
	}
}

func TestExplainPatternProbabilities(t *testing.T) {
	st := demoXKG()
	q, a := userCAnswer(t, st)
	ex := Explain(st, q, a)
	for _, ti := range append(ex.KGTriples, ex.XKGTriples...) {
		if ti.Prob <= 0 || ti.Prob > 1 {
			t.Errorf("pattern prob = %v for %s", ti.Prob, ti.Triple)
		}
		if ti.Pattern == "" {
			t.Errorf("pattern missing for %s", ti.Triple)
		}
	}
}
