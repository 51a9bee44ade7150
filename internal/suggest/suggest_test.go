package suggest

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"trinit/internal/text"

	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/relax"
	"trinit/internal/store"
	"trinit/internal/topk"
)

// suggestStore has a KG predicate worksFor whose argument pairs are mostly
// shared with the token predicate 'works at', so the token should suggest
// the resource.
func suggestStore() *store.Store {
	st := store.New(nil, nil)
	st.AddKG(rdf.Resource("Alice"), rdf.Resource("worksFor"), rdf.Resource("Acme"))
	st.AddKG(rdf.Resource("Bob"), rdf.Resource("worksFor"), rdf.Resource("Globex"))
	st.AddKG(rdf.Resource("Carol"), rdf.Resource("worksFor"), rdf.Resource("Acme"))
	st.AddFact(rdf.Resource("Alice"), rdf.Token("works at"), rdf.Resource("Acme"), rdf.SourceXKG, 0.8, rdf.NoProv)
	st.AddFact(rdf.Resource("Bob"), rdf.Token("works at"), rdf.Resource("Globex"), rdf.SourceXKG, 0.8, rdf.NoProv)
	st.AddFact(rdf.Resource("Dave"), rdf.Token("works at"), rdf.Resource("Initech"), rdf.SourceXKG, 0.7, rdf.NoProv)
	st.Freeze()
	return st
}

func TestCompleteRanksFrequentFirst(t *testing.T) {
	st := suggestStore()
	s := New(st)
	got := s.Complete("A", 5)
	if len(got) < 2 {
		t.Fatalf("completions = %v", got)
	}
	// Acme occurs in 3 triples, Alice in 2.
	if got[0].Text != "Acme" {
		t.Errorf("top completion = %q, want Acme", got[0].Text)
	}
}

func TestCompleteMiss(t *testing.T) {
	s := New(suggestStore())
	if got := s.Complete("Zzz", 5); len(got) != 0 {
		t.Fatalf("completions for missing prefix: %v", got)
	}
}

func TestPredicateTokenSuggestion(t *testing.T) {
	st := suggestStore()
	s := New(st)
	q := query.MustParse("?x 'works at' ?y")
	suggs := s.Suggest(q)
	if len(suggs) != 1 {
		t.Fatalf("suggestions = %v", suggs)
	}
	sg := suggs[0]
	if sg.Resource != "worksFor" {
		t.Errorf("suggested %q, want worksFor", sg.Resource)
	}
	// 2 of the 3 token argument pairs are covered by worksFor.
	if want := 2.0 / 3.0; sg.Overlap < want-1e-9 || sg.Overlap > want+1e-9 {
		t.Errorf("overlap = %v, want %v", sg.Overlap, want)
	}
	if !strings.Contains(sg.Position, "predicate") {
		t.Errorf("position = %q", sg.Position)
	}
}

func TestEntityTokenSuggestion(t *testing.T) {
	st := store.New(nil, nil)
	st.AddKG(rdf.Resource("PrincetonUniversity"), rdf.Resource("member"), rdf.Resource("IvyLeague"))
	st.AddFact(rdf.Token("princeton university"), rdf.Token("is in"), rdf.Token("New Jersey"), rdf.SourceXKG, 0.5, rdf.NoProv)
	st.Freeze()
	s := New(st)
	q := query.MustParse("'princeton university' member ?x")
	suggs := s.Suggest(q)
	if len(suggs) != 1 {
		t.Fatalf("suggestions = %v", suggs)
	}
	if suggs[0].Resource != "PrincetonUniversity" {
		t.Errorf("suggested %q", suggs[0].Resource)
	}
	if !strings.Contains(suggs[0].Position, "subject") {
		t.Errorf("position = %q", suggs[0].Position)
	}
}

func TestNoSuggestionForResourceOnlyQuery(t *testing.T) {
	s := New(suggestStore())
	if suggs := s.Suggest(query.MustParse("?x worksFor ?y")); len(suggs) != 0 {
		t.Fatalf("suggestions for resource query: %v", suggs)
	}
}

func TestNoSuggestionBelowThreshold(t *testing.T) {
	st := suggestStore()
	s := New(st)
	s.MinOverlap = 0.9
	if suggs := s.Suggest(query.MustParse("?x 'works at' ?y")); len(suggs) != 0 {
		t.Fatalf("suggestion above impossible threshold: %v", suggs)
	}
}

func TestNoSuggestionForUnknownToken(t *testing.T) {
	s := New(suggestStore())
	if suggs := s.Suggest(query.MustParse("?x 'flies kites with' ?y")); len(suggs) != 0 {
		t.Fatalf("suggestion for unmatched token: %v", suggs)
	}
}

func TestRuleNotices(t *testing.T) {
	st := store.New(nil, nil)
	st.AddKG(rdf.Resource("AlfredKleiner"), rdf.Resource("hasStudent"), rdf.Resource("AlbertEinstein"))
	st.Freeze()
	q := query.MustParse("AlbertEinstein hasAdvisor ?x")
	rules := []*relax.Rule{
		relax.MustParseRule("r2", "?x hasAdvisor ?y => ?y hasStudent ?x", 1.0, "inversion"),
	}
	rewrites := relax.NewExpander(rules).Expand(q)
	ans, _ := topk.NewExecutor(st, topk.NewCache(0), topk.Options{K: 5}).Evaluate(q, rewrites)
	if len(ans) != 1 {
		t.Fatalf("answers = %d", len(ans))
	}
	notices := RuleNotices(ans)
	if len(notices) != 1 {
		t.Fatalf("notices = %v", notices)
	}
	n := notices[0]
	if n.RuleID != "r2" || n.Answers != 1 {
		t.Errorf("notice = %+v", n)
	}
	if !strings.Contains(n.Message, "opposite direction") {
		t.Errorf("inversion message = %q", n.Message)
	}
}

func TestRuleNoticesEmptyWithoutRelaxation(t *testing.T) {
	st := suggestStore()
	q := query.MustParse("?x worksFor ?y")
	rewrites := relax.NewExpander(nil).Expand(q)
	ans, _ := topk.NewExecutor(st, topk.NewCache(0), topk.Options{K: 5}).Evaluate(q, rewrites)
	if len(ans) == 0 {
		t.Fatal("no answers")
	}
	if notices := RuleNotices(ans); len(notices) != 0 {
		t.Fatalf("notices without relaxation: %v", notices)
	}
}

func TestRuleNoticesCountAnswers(t *testing.T) {
	st := store.New(nil, nil)
	st.AddKG(rdf.Resource("K"), rdf.Resource("hasStudent"), rdf.Resource("A"))
	st.AddKG(rdf.Resource("K"), rdf.Resource("hasStudent"), rdf.Resource("B"))
	st.Freeze()
	q := query.MustParse("?s hasAdvisor ?a")
	rules := []*relax.Rule{
		relax.MustParseRule("r2", "?x hasAdvisor ?y => ?y hasStudent ?x", 1.0, "inversion"),
	}
	rewrites := relax.NewExpander(rules).Expand(q)
	ans, _ := topk.NewExecutor(st, topk.NewCache(0), topk.Options{K: 5}).Evaluate(q, rewrites)
	notices := RuleNotices(ans)
	if len(notices) != 1 || notices[0].Answers != 2 {
		t.Fatalf("notices = %+v", notices)
	}
}

// oracleSuggest is the original per-request algorithm, kept as the
// differential oracle: for a predicate token it materialises args(p) for
// every KG predicate and intersects it with the token's argument pairs;
// for a subject/object token it asks the token index at the threshold.
func oracleSuggest(st *store.Store, minOverlap float64, q *query.Query) []TokenSuggestion {
	args := func(p rdf.TermID) map[[2]rdf.TermID]bool {
		out := make(map[[2]rdf.TermID]bool)
		for _, id := range st.Match(rdf.NoTerm, p, rdf.NoTerm) {
			t := st.Triple(id)
			out[[2]rdf.TermID{t.S, t.O}] = true
		}
		return out
	}
	predicate := func(tok string) *TokenSuggestion {
		tokPairs := make(map[[2]rdf.TermID]bool)
		for _, cand := range st.MatchToken(tok, store.MaskToken, 0.5, 0) {
			for pair := range args(cand.Term) {
				tokPairs[pair] = true
			}
		}
		if len(tokPairs) == 0 {
			return nil
		}
		best := TokenSuggestion{Token: tok}
		for _, ps := range st.Predicates() {
			term := st.Dict().Term(ps.Pred)
			if term.Kind != rdf.KindResource {
				continue
			}
			a := args(ps.Pred)
			inter := 0
			for pair := range tokPairs {
				if a[pair] {
					inter++
				}
			}
			overlap := float64(inter) / float64(len(tokPairs))
			if overlap > best.Overlap {
				best.Overlap = overlap
				best.Resource = term.Text
			}
		}
		if best.Overlap < minOverlap || best.Resource == "" {
			return nil
		}
		return &best
	}
	entity := func(tok string) *TokenSuggestion {
		cands := st.MatchToken(tok, store.MaskResource, minOverlap, 5)
		if len(cands) == 0 {
			return nil
		}
		return &TokenSuggestion{Token: tok, Resource: st.Dict().Term(cands[0].Term).Text, Overlap: cands[0].Sim}
	}
	var out []TokenSuggestion
	for pi, p := range q.Patterns {
		slots := [3]query.Slot{p.S, p.P, p.O}
		roles := [3]string{"subject", "predicate", "object"}
		for si, sl := range slots {
			if sl.IsVar() || sl.Term.Kind != rdf.KindToken {
				continue
			}
			var sugg *TokenSuggestion
			if si == 1 {
				sugg = predicate(sl.Term.Text)
			} else {
				sugg = entity(sl.Term.Text)
			}
			if sugg != nil {
				sugg.Position = fmt.Sprintf("pattern %d, %s", pi+1, roles[si])
				out = append(out, *sugg)
			}
		}
	}
	return out
}

// sameSuggestions compares two suggestion lists field by field, overlaps
// bit for bit.
func sameSuggestions(got, want []TokenSuggestion) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d suggestions, oracle %d:\n got  %+v\n want %+v", len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Token != w.Token || g.Resource != w.Resource || g.Position != w.Position ||
			math.Float64bits(g.Overlap) != math.Float64bits(w.Overlap) {
			return fmt.Errorf("suggestion %d = %+v, oracle %+v", i, g, w)
		}
	}
	return nil
}

var (
	diffEntities   = []string{"NorthUniversity", "SouthUniversity", "NorthCity", "SouthCity", "EastLab", "WestLab", "PrizeCommittee", "GrandPrize"}
	diffKGPreds    = []string{"worksFor", "employedBy", "locatedIn", "wonPrize"}
	diffTokenPreds = []string{"worked at", "works at", "worked for", "won prize for", "won the prize", "located in"}
	diffQueries    = []string{
		"?x 'worked at' ?y",
		"?x 'works at' ?y",
		"?x 'won prize for' ?y",
		"?x 'located in' ?y . ?y 'worked for' ?z",
		"'north university' 'worked at' ?y",
		"?x worksFor 'south city'",
		"'grand prize' ?p 'east lab'",
		"?x 'flies kites with' ?y",
	}
)

// fact is a triple by term value, so one draw can feed a base store and a
// delta overlay whose dictionary is a clone.
type fact struct {
	s, p, o rdf.Term
	src     rdf.Source
	conf    float64
}

// randomFacts draws n KG and XKG facts over a small vocabulary, so that
// token predicates share many argument pairs with several KG predicates
// and subject/object tokens resemble several resource labels.
func randomFacts(rng *rand.Rand, n int) []fact {
	end := func() rdf.Term {
		e := diffEntities[rng.Intn(len(diffEntities))]
		if rng.Intn(6) == 0 {
			return rdf.Token(strings.ToLower(e[:5]) + " " + strings.ToLower(e[5:]))
		}
		return rdf.Resource(e)
	}
	out := make([]fact, n)
	for i := range out {
		f := fact{s: end(), o: end()}
		if rng.Intn(2) == 0 {
			f.p, f.src, f.conf = rdf.Resource(diffKGPreds[rng.Intn(len(diffKGPreds))]), rdf.SourceKG, 1
		} else {
			f.p, f.src, f.conf = rdf.Token(diffTokenPreds[rng.Intn(len(diffTokenPreds))]), rdf.SourceXKG, 0.1+0.9*rng.Float64()
		}
		out[i] = f
	}
	return out
}

// buildStore freezes facts[:split] into a base and, when split < len,
// overlays the rest as a live-ingest delta interned into a cloned
// dictionary.
func buildStore(t *testing.T, facts []fact, split int) *store.Store {
	t.Helper()
	base := store.New(nil, nil)
	for _, f := range facts[:split] {
		base.AddFact(f.s, f.p, f.o, f.src, f.conf, rdf.NoProv)
	}
	base.Freeze()
	if split == len(facts) {
		return base
	}
	dict := base.Dict().Clone()
	var rows []rdf.Triple
	for _, f := range facts[split:] {
		rows = append(rows, rdf.Triple{S: dict.Intern(f.s), P: dict.Intern(f.p), O: dict.Intern(f.o), Source: f.src, Conf: f.conf, Prov: rdf.NoProv})
	}
	d, _, err := store.BuildDelta(base, dict, nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	return base.WithDelta(d, dict, nil)
}

// TestSuggestMatchesOracle is the cold path's differential: over random
// small stores, with and without a delta overlay, at several thresholds,
// the index-driven memoised suggester must pick the oracle's resource
// with a bit-equal overlap — on a cold miss and again from the memo.
func TestSuggestMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		facts := randomFacts(rng, 10+rng.Intn(60))
		split := len(facts)
		if trial%2 == 1 {
			split = len(facts) / 2
		}
		st := buildStore(t, facts, split)
		for _, minOverlap := range []float64{0, 0.3, 0.5, 0.9} {
			s := New(st)
			s.MinOverlap = minOverlap
			for pass := 0; pass < 2; pass++ {
				for _, qs := range diffQueries {
					q := query.MustParse(qs)
					if err := sameSuggestions(s.Suggest(q), oracleSuggest(st, minOverlap, q)); err != nil {
						t.Fatalf("trial %d (delta %v), MinOverlap %v, pass %d, %q: %v", trial, split < len(facts), minOverlap, pass, qs, err)
					}
				}
			}
		}
	}
}

// TestSuggestTieGoesToLowestTermID covers two KG predicates connecting
// exactly the same token pairs: the one interned first (lower TermID)
// wins, even though it sorts last by name, as in the oracle.
func TestSuggestTieGoesToLowestTermID(t *testing.T) {
	st := store.New(nil, nil)
	for _, e := range []string{"A", "B", "C"} {
		st.AddKG(rdf.Resource(e), rdf.Resource("zFirst"), rdf.Resource("Org"+e))
		st.AddKG(rdf.Resource(e), rdf.Resource("aSecond"), rdf.Resource("Org"+e))
		st.AddFact(rdf.Resource(e), rdf.Token("works at"), rdf.Resource("Org"+e), rdf.SourceXKG, 0.8, rdf.NoProv)
	}
	st.Freeze()
	q := query.MustParse("?x 'works at' ?y")
	got := New(st).Suggest(q)
	if err := sameSuggestions(got, oracleSuggest(st, 0.3, q)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Resource != "zFirst" || got[0].Overlap != 1 {
		t.Fatalf("tie resolved to %+v, want zFirst at overlap 1", got)
	}
}

// TestSuggestThresholdAppliedOnRead changes MinOverlap after New, both
// before any suggestion and after the memo is warm: each answer must be
// what a fresh suggester at that threshold gives.
func TestSuggestThresholdAppliedOnRead(t *testing.T) {
	st := suggestStore()
	q := query.MustParse("?x 'works at' ?y . 'alice' worksFor ?z")
	fresh := func(min float64) []TokenSuggestion {
		s := New(st)
		s.MinOverlap = min
		return s.Suggest(q)
	}
	raised := New(st)
	raised.MinOverlap = 0.9
	if err := sameSuggestions(raised.Suggest(q), fresh(0.9)); err != nil {
		t.Fatalf("raised before first use: %v", err)
	}
	warm := New(st)
	if len(warm.Suggest(q)) == 0 {
		t.Fatal("no suggestion at the default threshold")
	}
	for _, min := range []float64{0.9, 0.5, 0, 0.3} {
		warm.MinOverlap = min
		if err := sameSuggestions(warm.Suggest(q), fresh(min)); err != nil {
			t.Fatalf("MinOverlap %v on a warm memo: %v", min, err)
		}
	}
}

// TestSuggestMemoBounded floods the memo with distinct tokens: it stops
// at memoCap entries, and suggestions past the cap are still correct.
func TestSuggestMemoBounded(t *testing.T) {
	st := suggestStore()
	s := New(st)
	for i := 0; i <= memoCap; i++ {
		s.Suggest(query.MustParse(fmt.Sprintf("?x 'token %d' ?y", i)))
	}
	if n := len(s.memo); n != memoCap {
		t.Fatalf("memo holds %d entries, want the cap %d", n, memoCap)
	}
	q := query.MustParse("?x 'works at' ?y")
	if err := sameSuggestions(s.Suggest(q), oracleSuggest(st, s.MinOverlap, q)); err != nil {
		t.Fatalf("past the cap: %v", err)
	}
	if len(s.memo) != memoCap {
		t.Fatal("memo grew past its cap")
	}
}

// TestSuggestAllocCeiling gates the warm path: a memoised one-token
// suggestion allocates only its result (the slice and the position
// string), never the token's argument pairs.
func TestSuggestAllocCeiling(t *testing.T) {
	s := New(suggestStore())
	q := query.MustParse("?x 'works at' ?y")
	if len(s.Suggest(q)) != 1 {
		t.Fatal("no suggestion to measure")
	}
	const ceiling = 3
	if n := testing.AllocsPerRun(100, func() { s.Suggest(q) }); n > ceiling {
		t.Fatalf("warm Suggest allocates %v times, ceiling %d", n, ceiling)
	}
}

// TestCompleteBuildsOneTrie races first-use completions: every caller
// must see the same trie, built once.
func TestCompleteBuildsOneTrie(t *testing.T) {
	s := New(suggestStore())
	if s.trie != nil {
		t.Fatal("New built the completion trie eagerly")
	}
	tries := make([]*text.Trie, 8)
	results := make([][]text.Completion, 8)
	var wg sync.WaitGroup
	for i := range tries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tries[i] = s.completionTrie()
			results[i] = s.Complete("A", 5)
		}()
	}
	wg.Wait()
	for i := range tries {
		if tries[i] != tries[0] {
			t.Fatalf("caller %d saw a different trie", i)
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d completions %v, caller 0 %v", i, results[i], results[0])
		}
	}
}
