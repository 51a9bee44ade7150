package score

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/store"
)

func demoStore() *store.Store {
	st := store.New(nil, nil)
	st.AddKG(rdf.Resource("AlbertEinstein"), rdf.Resource("bornIn"), rdf.Resource("Ulm"))
	st.AddKG(rdf.Resource("MaxBorn"), rdf.Resource("bornIn"), rdf.Resource("Breslau"))
	st.AddKG(rdf.Resource("AlbertEinstein"), rdf.Resource("affiliation"), rdf.Resource("IAS"))
	st.AddFact(rdf.Resource("AlbertEinstein"), rdf.Token("won Nobel for"), rdf.Token("discovery of the photoelectric effect"), rdf.SourceXKG, 0.9, rdf.NoProv)
	st.AddFact(rdf.Resource("AlbertEinstein"), rdf.Token("lectured at"), rdf.Resource("PrincetonUniversity"), rdf.SourceXKG, 0.7, rdf.NoProv)
	st.AddFact(rdf.Resource("MaxBorn"), rdf.Token("lectured at"), rdf.Resource("Goettingen"), rdf.SourceXKG, 0.5, rdf.NoProv)
	st.Freeze()
	return st
}

func TestMatchPatternExactResource(t *testing.T) {
	st := demoStore()
	m := NewMatcher(st)
	ms := m.MatchPattern(query.MustParse("?x bornIn ?y").Patterns[0])
	if len(ms) != 2 {
		t.Fatalf("matches = %d, want 2", len(ms))
	}
	// Both KG triples have conf 1, so probabilities are uniform 0.5.
	for _, mt := range ms {
		if mt.Prob != 0.5 {
			t.Errorf("Prob = %v, want 0.5", mt.Prob)
		}
		if len(mt.Bindings) != 2 {
			t.Errorf("bindings = %v", mt.Bindings)
		}
	}
}

func TestMatchPatternProbsSumToOne(t *testing.T) {
	st := demoStore()
	m := NewMatcher(st)
	for _, qs := range []string{"?x bornIn ?y", "?x 'lectured at' ?y", "AlbertEinstein ?p ?o"} {
		ms := m.MatchPattern(query.MustParse(qs).Patterns[0])
		if len(ms) == 0 {
			t.Fatalf("%s: no matches", qs)
		}
		sum := 0.0
		for _, mt := range ms {
			sum += mt.Prob
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%s: probs sum to %v", qs, sum)
		}
	}
}

func TestMatchPatternTokenPredicate(t *testing.T) {
	st := demoStore()
	m := NewMatcher(st)
	// 'won nobel for' (user spelling) must match 'won Nobel for'.
	ms := m.MatchPattern(query.MustParse("AlbertEinstein 'won nobel for' ?x").Patterns[0])
	if len(ms) != 1 {
		t.Fatalf("matches = %d, want 1", len(ms))
	}
	if ms[0].Prob != 1 {
		t.Errorf("single-match prob = %v, want 1", ms[0].Prob)
	}
}

func TestMatchPatternTokenMatchesCamelCasePredicate(t *testing.T) {
	st := demoStore()
	m := NewMatcher(st)
	// The token 'born in' matches the KG predicate bornIn via camel-case
	// tokenisation — the XKG query language reaches KG facts too.
	ms := m.MatchPattern(query.MustParse("?x 'born in' ?y").Patterns[0])
	if len(ms) != 2 {
		t.Fatalf("matches = %d, want the 2 bornIn facts", len(ms))
	}
}

func TestMatchPatternConfidenceOrdersMatches(t *testing.T) {
	st := demoStore()
	m := NewMatcher(st)
	ms := m.MatchPattern(query.MustParse("?x 'lectured at' ?y").Patterns[0])
	if len(ms) != 2 {
		t.Fatalf("matches = %d", len(ms))
	}
	// Einstein's 0.7 extraction outranks Born's 0.5.
	first := st.Triple(ms[0].Triple)
	if st.Dict().Term(first.S).Text != "AlbertEinstein" {
		t.Errorf("highest match = %v", st.Dict().Term(first.S))
	}
	if ms[0].Prob <= ms[1].Prob {
		t.Error("matches not sorted by probability")
	}
	// tf-effect: probabilities proportional to confidence.
	want0 := 0.7 / 1.2
	if math.Abs(ms[0].Prob-want0) > 1e-12 {
		t.Errorf("Prob = %v, want %v", ms[0].Prob, want0)
	}
}

func TestIdfEffectSelectivePatternsScoreHigher(t *testing.T) {
	st := demoStore()
	m := NewMatcher(st)
	// Selective: AlbertEinstein bornIn ?y (1 match, prob 1).
	sel := m.MatchPattern(query.MustParse("AlbertEinstein bornIn ?y").Patterns[0])
	// Unselective: ?x ?p ?y (6 matches).
	all := m.MatchPattern(query.MustParse("?x ?p ?y").Patterns[0])
	if len(sel) != 1 || len(all) != 6 {
		t.Fatalf("match counts: %d, %d", len(sel), len(all))
	}
	if sel[0].Prob != 1 {
		t.Errorf("selective prob = %v", sel[0].Prob)
	}
	if all[0].Prob >= sel[0].Prob {
		t.Errorf("idf effect missing: broad pattern prob %v >= selective %v", all[0].Prob, sel[0].Prob)
	}
}

func TestMatchPatternRepeatedVariable(t *testing.T) {
	st := store.New(nil, nil)
	st.AddKG(rdf.Resource("A"), rdf.Resource("knows"), rdf.Resource("A"))
	st.AddKG(rdf.Resource("A"), rdf.Resource("knows"), rdf.Resource("B"))
	st.Freeze()
	m := NewMatcher(st)
	ms := m.MatchPattern(query.MustParse("?x knows ?x").Patterns[0])
	if len(ms) != 1 {
		t.Fatalf("matches = %d, want only the self-loop", len(ms))
	}
	if ms[0].Prob != 1 {
		t.Errorf("prob = %v", ms[0].Prob)
	}
}

func TestMatchPatternUnknownResource(t *testing.T) {
	st := demoStore()
	m := NewMatcher(st)
	if ms := m.MatchPattern(query.MustParse("?x bornIn Atlantis").Patterns[0]); ms != nil {
		t.Fatalf("matches for unknown resource: %v", ms)
	}
}

func TestMatchPatternLiteral(t *testing.T) {
	st := store.New(nil, nil)
	st.AddFact(rdf.Resource("AlbertEinstein"), rdf.Resource("bornOn"), rdf.Literal("1879-03-14"), rdf.SourceKG, 1, rdf.NoProv)
	st.Freeze()
	m := NewMatcher(st)
	ms := m.MatchPattern(query.MustParse("AlbertEinstein bornOn ?d").Patterns[0])
	if len(ms) != 1 {
		t.Fatalf("matches = %d", len(ms))
	}
	if got := st.Dict().Term(ms[0].Bindings[0].Term); got.Kind != rdf.KindLiteral {
		t.Errorf("bound to %v", got)
	}
}

func TestMinTokenSimThreshold(t *testing.T) {
	st := demoStore()
	m := NewMatcher(st)
	m.MinTokenSim = 0.99
	// 'gave lectures at' shares only 'lectures'≈'lectured'? tokens differ
	// — below 0.99 it cannot match.
	if ms := m.MatchPattern(query.MustParse("?x 'gave lectures at' ?y").Patterns[0]); len(ms) != 0 {
		t.Fatalf("high threshold still matched: %v", ms)
	}
}

func TestAccessCounting(t *testing.T) {
	st := demoStore()
	m := NewMatcher(st)
	_, stats := m.MatchPatternCounted(query.MustParse("?x ?p ?y").Patterns[0])
	if stats.IndexScanned != 6 {
		t.Fatalf("accesses = %d, want 6", stats.IndexScanned)
	}
	// A bound pattern touches only its index range.
	_, stats = m.MatchPatternCounted(query.MustParse("?x bornIn ?y").Patterns[0])
	if stats.IndexScanned != 2 {
		t.Fatalf("bound-pattern accesses = %d, want 2", stats.IndexScanned)
	}
	// A token pattern resolves its slot through the inverted index and
	// touches only the candidate ranges, not the wildcard range.
	_, stats = m.MatchPatternCounted(query.MustParse("?x 'lectured at' ?y").Patterns[0])
	if stats.TokenResolutions != 1 {
		t.Fatalf("token resolutions = %d, want 1", stats.TokenResolutions)
	}
	if stats.ScanFallback {
		t.Fatal("token pattern unexpectedly fell back to the scan path")
	}
	if stats.IndexScanned >= 6 {
		t.Fatalf("token pattern touched %d entries, want fewer than the full store (6)", stats.IndexScanned)
	}
}

func TestSelectivity(t *testing.T) {
	st := demoStore()
	m := NewMatcher(st)
	if n := m.Selectivity(query.MustParse("?x bornIn ?y").Patterns[0]); n != 2 {
		t.Fatalf("selectivity = %d", n)
	}
}

func TestDeterministicOrder(t *testing.T) {
	st := demoStore()
	m := NewMatcher(st)
	p := query.MustParse("?x ?p ?y").Patterns[0]
	a := m.MatchPattern(p)
	for i := 0; i < 5; i++ {
		b := m.MatchPattern(p)
		for j := range a {
			if a[j].Triple != b[j].Triple || a[j].Prob != b[j].Prob {
				t.Fatal("non-deterministic match order")
			}
		}
	}
}

// TestTokenResolvedMatchesScanByteIdentical: on the demo store, every
// token-pattern shape must produce the same rendered match list on the
// token-resolved path and the wildcard scan (probabilities compared
// exactly via %.17g).
func TestTokenResolvedMatchesScanByteIdentical(t *testing.T) {
	st := demoStore()
	m := NewMatcher(st)
	render := func(ms []Match) string {
		var b strings.Builder
		for _, m := range ms {
			fmt.Fprintf(&b, "t%d raw=%.17g prob=%.17g %v\n", m.Triple, m.Raw, m.Prob, m.Bindings)
		}
		return b.String()
	}
	for _, qs := range []string{
		"?x 'lectured at' ?y",
		"?x 'born in' ?y",
		"AlbertEinstein 'won nobel for' ?x",
		"?x 'lectured at' ?x",        // repeated variable
		"?x 'of' ?y",                 // all-stopword phrase
		"?x 'zzz unknown phrase' ?y", // unknown token
		"?x 'won nobel for' 'photoelectric effect discovery'", // two token slots
	} {
		p := query.MustParse(qs).Patterns[0]
		rm, _ := m.MatchPatternCounted(p)
		sm, _ := m.MatchPatternScan(p)
		if got, want := render(rm), render(sm); got != want {
			t.Errorf("%s: lists differ\n--- token-resolved\n%s--- scan\n%s", qs, got, want)
		}
	}
}

// TestSelectivityTokenPatterns: Selectivity must equal the match-list
// length for token patterns and repeated-variable patterns on both paths
// (MinTokenSim 0 forces the scan path).
func TestSelectivityTokenPatterns(t *testing.T) {
	st := demoStore()
	for _, minSim := range []float64{NewMatcher(st).MinTokenSim, 0} {
		m := NewMatcher(st)
		m.MinTokenSim = minSim
		for _, qs := range []string{
			"?x 'lectured at' ?y",
			"?x 'lectured at' ?x",
			"?x ?p ?x",
			"?x 'zzz unknown phrase' ?y",
			"AlbertEinstein 'won nobel for' ?x",
		} {
			p := query.MustParse(qs).Patterns[0]
			if got, want := m.Selectivity(p), len(m.MatchPattern(p)); got != want {
				t.Errorf("MinTokenSim=%v %s: Selectivity = %d, matches = %d", minSim, qs, got, want)
			}
		}
	}
}

// TestMinTokenSimZeroFallsBackToScan: with a zero threshold,
// zero-similarity matches exist that the inverted index cannot enumerate,
// so the matcher must take the scan path (and still agree with it).
func TestMinTokenSimZeroFallsBackToScan(t *testing.T) {
	st := demoStore()
	m := NewMatcher(st)
	m.MinTokenSim = 0
	p := query.MustParse("?x 'lectured at' ?y").Patterns[0]
	ms, stats := m.MatchPatternCounted(p)
	if !stats.ScanFallback {
		t.Error("MinTokenSim=0 did not fall back to the scan path")
	}
	if stats.TokenResolutions != 0 {
		t.Errorf("resolutions = %d, want 0", stats.TokenResolutions)
	}
	// Zero-similarity triples survive the threshold with Raw = 0.
	if len(ms) != 6 {
		t.Errorf("matches = %d, want all 6 store triples", len(ms))
	}
}
