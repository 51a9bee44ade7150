package dataset

import (
	"strings"
	"testing"

	"trinit/internal/ned"
	"trinit/internal/openie"
	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/relax"
	"trinit/internal/store"
	"trinit/internal/topk"
	"trinit/internal/xkg"
)

func TestDemoScenarioUsersAToD(t *testing.T) {
	d := NewDemo()
	if len(d.Queries) != 4 {
		t.Fatalf("demo queries = %d", len(d.Queries))
	}
	for _, dq := range d.Queries {
		q, err := query.Parse(dq.Query)
		if err != nil {
			t.Fatalf("user %s query does not parse: %v", dq.User, err)
		}
		q.Projection = q.ProjectedVars()

		// Without relaxation.
		plain := relax.NewExpander(nil).Expand(q)
		ansPlain, _ := topk.NewExecutor(d.Store, topk.NewCache(0), topk.Options{K: 5}).Evaluate(q, plain)
		if dq.EmptyWithoutRelaxation && len(ansPlain) != 0 {
			t.Errorf("user %s: expected empty answer without relaxation, got %d", dq.User, len(ansPlain))
		}

		// With the Figure 4 rules.
		rws := relax.NewExpander(d.Rules).Expand(q)
		ans, _ := topk.NewExecutor(d.Store, topk.NewCache(0), topk.Options{K: 5}).Evaluate(q, rws)
		if len(ans) == 0 {
			t.Fatalf("user %s: no answers with relaxation", dq.User)
		}
		var got string
		for _, v := range q.ProjectedVars() {
			got = d.Store.Dict().Term(ans[0].Bindings[v]).Text
		}
		if got != dq.Want {
			t.Errorf("user %s: top answer = %q, want %q", dq.User, got, dq.Want)
		}
	}
}

func TestDemoStoreMatchesFigureCounts(t *testing.T) {
	d := NewDemo()
	s := d.Store.Stats()
	// Figure 1 has 6 facts, plus 2 type facts; Figure 3 adds 4.
	if s.KGTriples != 8 || s.XKGTriples != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if s.ProvenanceRecs != 4 {
		t.Fatalf("provenance records = %d, want 4", s.ProvenanceRecs)
	}
	if len(d.Rules) != 4 {
		t.Fatalf("Figure 4 rules = %d", len(d.Rules))
	}
	for _, r := range d.Rules {
		if err := r.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig())
	b := Generate(DefaultConfig())
	if a.KGSize() != b.KGSize() || len(a.Docs()) != len(b.Docs()) {
		t.Fatal("same seed produced different worlds")
	}
	for i := range a.Docs() {
		if a.Docs()[i] != b.Docs()[i] {
			t.Fatalf("doc %d differs", i)
		}
	}
	cfg := DefaultConfig()
	cfg.Seed = 2
	c := Generate(cfg)
	same := a.KGSize() == c.KGSize() && len(a.Docs()) == len(c.Docs())
	if same && a.Docs()[0] == c.Docs()[0] {
		t.Fatal("different seeds produced identical corpora")
	}
}

func TestGenerateEntityCounts(t *testing.T) {
	cfg := DefaultConfig()
	w := Generate(cfg)
	if len(w.People()) != cfg.People {
		t.Errorf("people = %d", len(w.People()))
	}
	if len(w.Cities()) != cfg.Cities || len(w.Countries()) != cfg.Countries || len(w.Universities()) != cfg.Universities {
		t.Errorf("entity counts: %d cities %d countries %d unis",
			len(w.Cities()), len(w.Countries()), len(w.Universities()))
	}
	// Resource names must be unique.
	seen := make(map[string]bool)
	for _, lists := range [][]string{w.People(), w.Cities(), w.Countries(), w.Universities()} {
		for _, r := range lists {
			if seen[r] {
				t.Fatalf("duplicate resource %q", r)
			}
			seen[r] = true
		}
	}
}

func TestGenerateTruthConsistency(t *testing.T) {
	w := Generate(DefaultConfig())
	tr := w.Truth
	for p, city := range tr.BornIn {
		if tr.CityCountry[city] == "" {
			t.Fatalf("person %s born in city %s with no country", p, city)
		}
	}
	for p, u := range tr.Affiliation {
		if tr.UniCity[u] == "" {
			t.Fatalf("person %s affiliated with unknown university %s", p, u)
		}
	}
	if len(tr.Advisor) == 0 || len(tr.PrizeField) == 0 {
		t.Fatal("truth missing advisors or prizes")
	}
	hidden := 0
	for p := range tr.Affiliation {
		if !tr.AffiliationInKG[p] {
			hidden++
		}
	}
	if hidden == 0 {
		t.Fatal("no corpus-only affiliations generated; incompleteness scenario missing")
	}
}

func TestGeneratedCorpusExtractsAndLinks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.People = 40
	w := Generate(cfg)
	st := store.New(nil, nil)
	w.PopulateKG(st)
	linker := ned.NewLinker(st)
	stats := xkg.Build(st, linker, w.Docs(), xkg.DefaultOptions())
	if stats.Extractions == 0 || stats.Added == 0 {
		t.Fatalf("pipeline produced nothing: %+v", stats)
	}
	if stats.LinkedSubj == 0 {
		t.Fatalf("no subjects linked: %+v", stats)
	}
	st.Freeze()
	// The XKG must contain linked 'worked at'-style facts for people
	// whose affiliation is not in the KG.
	found := false
	for i := 0; i < st.Len(); i++ {
		tr := st.Triple(store.ID(i))
		if tr.Source != rdf.SourceXKG {
			continue
		}
		p := st.Dict().Term(tr.P)
		if p.Kind == rdf.KindToken && strings.Contains(p.Text, "at") &&
			st.Dict().Term(tr.S).Kind == rdf.KindResource &&
			st.Dict().Term(tr.O).Kind == rdf.KindResource {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no linked affiliation-style token triples in the XKG")
	}
}

func TestWorkloadSize(t *testing.T) {
	w := Generate(DefaultConfig())
	qs := w.Workload(70)
	if len(qs) != 70 {
		t.Fatalf("workload = %d queries, want 70", len(qs))
	}
	cats := make(map[string]int)
	for _, q := range qs {
		cats[q.Category]++
	}
	for _, cat := range []string{"born", "advisor", "affiliation", "prize", "cityjoin", "leaguejoin"} {
		if cats[cat] == 0 {
			t.Errorf("category %s missing from workload (%v)", cat, cats)
		}
	}
}

func TestWorkloadQueriesParseAndHaveJudgments(t *testing.T) {
	w := Generate(DefaultConfig())
	for _, wq := range w.Workload(70) {
		q, err := query.Parse(wq.Text)
		if err != nil {
			t.Fatalf("%s: %v", wq.ID, err)
		}
		proj := q.ProjectedVars()
		if len(proj) != 1 || proj[0] != wq.Var {
			t.Fatalf("%s: projected vars %v, want [%s]", wq.ID, proj, wq.Var)
		}
		if len(wq.Judgments) == 0 {
			t.Fatalf("%s: no judgments", wq.ID)
		}
		if wq.Judgments.NumRelevant() == 0 {
			t.Fatalf("%s: no relevant answers", wq.ID)
		}
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	a := Generate(DefaultConfig()).Workload(70)
	b := Generate(DefaultConfig()).Workload(70)
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Text != b[i].Text {
			t.Fatalf("workload query %d differs", i)
		}
	}
}

func TestNameGenerators(t *testing.T) {
	// Uniqueness over a large range.
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		r, _, _ := personNameSpread(i)
		if seen[r] {
			t.Fatalf("duplicate person resource %q at %d", r, i)
		}
		seen[r] = true
	}
	seen = make(map[string]bool)
	for i := 0; i < 300; i++ {
		c := cityName(i)
		if seen[c] {
			t.Fatalf("duplicate city %q at %d", c, i)
		}
		seen[c] = true
	}
	if countryName(3) != "Drevania" || countryName(13) == countryName(3) {
		t.Error("country naming wrong")
	}
	if universityName("Northford") != "NorthfordUniversity" {
		t.Error("university naming wrong")
	}
	if universityMention("Northford") != "Northford University" {
		t.Error("university mention wrong")
	}
	if prizeMention(0) != "Nobel Prize" {
		t.Errorf("prize mention = %q", prizeMention(0))
	}
	if fieldPhrase(0) != "quantum mechanics" {
		t.Errorf("field phrase = %q", fieldPhrase(0))
	}
	if leagueName(0) != "IvyLeague" {
		t.Errorf("league name = %q", leagueName(0))
	}
}

func TestBenchConfigLargerThanDefault(t *testing.T) {
	d, b := DefaultConfig(), BenchConfig()
	if b.People <= d.People || b.Universities <= d.Universities {
		t.Fatalf("bench config not larger: %+v", b)
	}
}

// TestWorkloadJudgmentKeysResolvable verifies the glue between generator
// judgments and store vocabulary: every judged answer for born/advisor/
// affiliation queries is a KG resource, and every prize judgment is a
// field phrase that Open IE actually extracts from the corpus.
func TestWorkloadJudgmentKeysResolvable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.People = 60
	w := Generate(cfg)
	st := store.New(nil, nil)
	w.PopulateKG(st)
	xkg.Build(st, ned.NewLinker(st), w.Docs(), xkg.DefaultOptions())
	st.Freeze()

	for _, wq := range w.Workload(40) {
		for key := range wq.Judgments {
			switch wq.Category {
			case "prize":
				if _, ok := st.Dict().Lookup(rdf.Token(key)); !ok {
					t.Errorf("%s: judged field %q not extracted as a token", wq.ID, key)
				}
			default:
				if _, ok := st.Dict().Lookup(rdf.Resource(key)); !ok {
					t.Errorf("%s: judged entity %q not a KG resource", wq.ID, key)
				}
			}
		}
	}
}

func TestWorkloadScalesDown(t *testing.T) {
	w := Generate(DefaultConfig())
	qs := w.Workload(10)
	if len(qs) == 0 || len(qs) > 10 {
		t.Fatalf("workload(10) = %d queries", len(qs))
	}
	if def := w.Workload(0); len(def) != 70 {
		t.Fatalf("workload(0) = %d, want default 70", len(def))
	}
}

func TestDocsGroupedBySentencesPerDoc(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SentencesPerDoc = 3
	w := Generate(cfg)
	for i, d := range w.Docs() {
		n := len(openie.SplitSentences(d.Text))
		if n > 3 {
			t.Fatalf("doc %d has %d sentences, want <= 3", i, n)
		}
		if d.ID == "" {
			t.Fatal("doc without ID")
		}
	}
}
