package trinit

// Differential and fuzz tests for token-resolved match building: for any
// pattern — including all-stopword token phrases, repeated variables and
// unknown tokens — the inverted-index resolution path and the wildcard
// scan (score.Matcher.MatchPatternScan, the reference) must produce
// byte-identical match lists, and token-heavy queries must rank like the
// reference evaluator in both processing modes. A -race test hammers the
// shared token-resolution cache from concurrent executors.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/relax"
	"trinit/internal/score"
	"trinit/internal/store"
	"trinit/internal/topk"
)

// renderMatches formats a match list for byte comparison; %.17g
// round-trips float64, so equal strings imply bit-identical scores.
func renderMatches(ms []score.Match) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "t%d raw=%.17g prob=%.17g", m.Triple, m.Raw, m.Prob)
		for _, bd := range m.Bindings {
			fmt.Fprintf(&b, " %s=%d", bd.Var, bd.Term)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// patternVocab samples pattern slots from the store's real vocabulary plus
// adversarial token phrases.
type patternVocab struct {
	resources []string
	tokens    []string
	rng       *rand.Rand
}

func newPatternVocab(st *store.Store, seed int64) *patternVocab {
	v := &patternVocab{rng: rand.New(rand.NewSource(seed))}
	st.Dict().All(func(_ rdf.TermID, t rdf.Term) bool {
		switch t.Kind {
		case rdf.KindResource:
			if len(v.resources) < 120 {
				v.resources = append(v.resources, t.Text)
			}
		case rdf.KindToken:
			if len(v.tokens) < 120 {
				v.tokens = append(v.tokens, t.Text)
			}
		}
		return len(v.resources) < 120 || len(v.tokens) < 120
	})
	return v
}

// adversarialTokens are token phrases exercising the resolution edge
// cases: all-stopword phrases (kept alive by the ContentTokens fallback),
// phrases with no indexed word, and stopword-padded real words.
var adversarialTokens = []string{
	"of", "the of", "in the a", // all stopwords
	"zzyzx qwfp", "completely absent phrase qqq", // unknown words
	"the worked at", "was born", "university", "at",
}

func (v *patternVocab) slot() query.Slot {
	vars := []string{"x", "y", "z"}
	switch v.rng.Intn(10) {
	case 0, 1, 2:
		return query.Variable(vars[v.rng.Intn(len(vars))])
	case 3, 4:
		return query.Bound(rdf.Resource(v.resources[v.rng.Intn(len(v.resources))]))
	case 5:
		return query.Bound(rdf.Resource("NoSuchResourceZZZ"))
	case 6, 7:
		tok := v.tokens[v.rng.Intn(len(v.tokens))]
		if v.rng.Intn(2) == 0 {
			tok = "the " + tok // stopword perturbation, same content set
		}
		return query.Bound(rdf.Token(tok))
	default:
		return query.Bound(rdf.Token(adversarialTokens[v.rng.Intn(len(adversarialTokens))]))
	}
}

func (v *patternVocab) pattern() query.Pattern {
	return query.Pattern{S: v.slot(), P: v.slot(), O: v.slot()}
}

// TestMatcherDifferentialFuzz: random patterns must produce byte-identical
// match lists between token-resolved and scan matching, and Selectivity
// must equal the match-list length.
func TestMatcherDifferentialFuzz(t *testing.T) {
	st := fullInstance().Store
	v := newPatternVocab(st, 17)
	m := score.NewMatcher(st)
	for round := 0; round < 400; round++ {
		p := v.pattern()
		rm, rs := m.MatchPatternCounted(p)
		sm, ss := m.MatchPatternScan(p)
		if got, want := renderMatches(rm), renderMatches(sm); got != want {
			t.Fatalf("round %d: pattern %s: match lists differ\n--- token-resolved\n%s--- scan\n%s",
				round, p, got, want)
		}
		if sel := m.Selectivity(p); sel != len(rm) {
			t.Fatalf("round %d: pattern %s: Selectivity = %d, matches = %d", round, p, sel, len(rm))
		}
		if ss.TokenResolutions != 0 {
			t.Fatalf("round %d: scan matcher resolved tokens: %+v", round, ss)
		}
		// The resolved path must never touch more posting entries than
		// the scan it replaces (the fallback guard's invariant).
		if rs.IndexScanned > ss.IndexScanned {
			t.Fatalf("round %d: pattern %s: resolved path scanned %d > scan path %d",
				round, p, rs.IndexScanned, ss.IndexScanned)
		}
	}
}

// TestMatcherStopwordAndUnknownTokens pins the resolution edge cases
// explicitly against the scan oracle.
func TestMatcherStopwordAndUnknownTokens(t *testing.T) {
	m := score.NewMatcher(fullInstance().Store)
	for _, tok := range adversarialTokens {
		for _, p := range []query.Pattern{
			{S: query.Variable("x"), P: query.Bound(rdf.Token(tok)), O: query.Variable("y")},
			{S: query.Variable("x"), P: query.Bound(rdf.Token(tok)), O: query.Variable("x")},
			{S: query.Bound(rdf.Token(tok)), P: query.Variable("p"), O: query.Bound(rdf.Token(tok))},
		} {
			rm, _ := m.MatchPatternCounted(p)
			sm, _ := m.MatchPatternScan(p)
			if got, want := renderMatches(rm), renderMatches(sm); got != want {
				t.Fatalf("token %q: pattern %s: lists differ\n--- token-resolved\n%s--- scan\n%s",
					tok, p, got, want)
			}
		}
	}
}

// TestTokenKernelDifferentialFuzz: random multi-pattern token queries
// must rank like the reference evaluator in both processing modes.
func TestTokenKernelDifferentialFuzz(t *testing.T) {
	inst := fullInstance()
	v := newPatternVocab(inst.Store, 23)
	m := score.NewMatcher(inst.Store)
	for round := 0; round < 40; round++ {
		q := &query.Query{Patterns: []query.Pattern{v.pattern()}}
		// Join in one or two more patterns sharing variables with the
		// first by construction of the tiny variable pool.
		for extra := v.rng.Intn(3); extra > 0; extra-- {
			q.Patterns = append(q.Patterns, v.pattern())
		}
		if len(q.ProjectedVars()) == 0 {
			continue // no variables, nothing to differentiate
		}
		c := newRefCase(fmt.Sprintf("round %d", round), m, inst.Rules, q)
		for _, km := range kernelModes {
			got, _ := topk.New(inst.Store, topk.Options{K: 10, Mode: km.mode}).Evaluate(q, c.rewrites)
			c.check(t, "["+km.name+"]", got)
		}
	}
}

// TestConcurrentTokenResolutionSharedCache runs token-heavy queries from
// many executors over one shared cache — one shared token-resolution map,
// one set of match lists — and checks every result against a serial
// baseline. Run with -race to catch unsynchronised access to the
// resolution cache and the zero-copy store ranges.
func TestConcurrentTokenResolutionSharedCache(t *testing.T) {
	inst := fullInstance()
	queries := []string{
		"?x 'worked at' ?u",
		"?x 'was born in' ?c",
		"?x 'won prize for' ?f",
		"SELECT ?x WHERE { ?x 'worked at' ?u . ?u locatedIn ?c }",
		"?x 'lectured at' ?u . ?u member ?l",
	}
	type prepared struct {
		q        *query.Query
		rewrites []relax.Rewrite
		want     string
	}
	prep := make([]prepared, len(queries))
	for i, qs := range queries {
		q := query.MustParse(qs)
		q.Projection = q.ProjectedVars()
		rewrites := relax.NewExpander(inst.Rules).Expand(q)
		ans, _ := topk.NewExecutor(inst.Store, topk.NewCache(0), topk.Options{K: 10}).Evaluate(q, rewrites)
		prep[i] = prepared{q, rewrites, renderAnswers(inst.Store, ans)}
	}
	cache := topk.NewCache(0)
	const goroutines = 8
	const iters = 5
	errs := make(chan error, goroutines*iters)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ex := topk.NewExecutor(inst.Store, cache, topk.Options{K: 10})
			for i := 0; i < iters; i++ {
				p := prep[(g+i)%len(prep)]
				ans, _ := ex.Evaluate(p.q, p.rewrites)
				if got := renderAnswers(inst.Store, ans); got != p.want {
					errs <- fmt.Errorf("goroutine %d iter %d (%s): answers diverged from serial baseline", g, i, p.q)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s := cache.Stats(); s.TokenResolutions == 0 {
		t.Errorf("shared cache built no token resolutions: %+v", s)
	}
}
