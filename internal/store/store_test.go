package store

import (
	"math/rand"
	"testing"
	"testing/quick"

	"trinit/internal/rdf"
	"trinit/internal/text"
)

// figure1 builds the sample knowledge graph of Figure 1.
func figure1() *Store {
	st := New(nil, nil)
	st.AddKG(rdf.Resource("AlbertEinstein"), rdf.Resource("bornIn"), rdf.Resource("Ulm"))
	st.AddKG(rdf.Resource("Ulm"), rdf.Resource("locatedIn"), rdf.Resource("Germany"))
	st.AddFact(rdf.Resource("AlbertEinstein"), rdf.Resource("bornOn"), rdf.Literal("1879-03-14"), rdf.SourceKG, 1, rdf.NoProv)
	st.AddKG(rdf.Resource("AlfredKleiner"), rdf.Resource("hasStudent"), rdf.Resource("AlbertEinstein"))
	st.AddKG(rdf.Resource("AlbertEinstein"), rdf.Resource("affiliation"), rdf.Resource("IAS"))
	st.AddKG(rdf.Resource("PrincetonUniversity"), rdf.Resource("member"), rdf.Resource("IvyLeague"))
	return st
}

// extend adds the Figure 3 XKG triples.
func extend(st *Store) {
	prov := st.Prov().Add(rdf.Prov{Doc: "clueweb-001", Sentence: "Einstein won a Nobel for his discovery of the photoelectric effect."})
	st.AddFact(rdf.Resource("AlbertEinstein"), rdf.Token("won Nobel for"), rdf.Token("discovery of the photoelectric effect"), rdf.SourceXKG, 0.9, prov)
	st.AddFact(rdf.Resource("IAS"), rdf.Token("housed in"), rdf.Resource("PrincetonUniversity"), rdf.SourceXKG, 0.8, rdf.NoProv)
	st.AddFact(rdf.Resource("AlbertEinstein"), rdf.Token("lectured at"), rdf.Resource("PrincetonUniversity"), rdf.SourceXKG, 0.7, rdf.NoProv)
	st.AddFact(rdf.Resource("AlbertEinstein"), rdf.Token("met his teacher"), rdf.Token("Prof. Kleiner"), rdf.SourceXKG, 0.6, rdf.NoProv)
}

func term(st *Store, t rdf.Term) rdf.TermID {
	id, ok := st.Dict().Lookup(t)
	if !ok {
		return rdf.NoTerm
	}
	return id
}

func TestAddDeduplicatesByKey(t *testing.T) {
	st := New(nil, nil)
	a := st.AddKG(rdf.Resource("A"), rdf.Resource("p"), rdf.Resource("B"))
	b := st.AddKG(rdf.Resource("A"), rdf.Resource("p"), rdf.Resource("B"))
	if a != b {
		t.Fatalf("duplicate fact got two IDs: %d, %d", a, b)
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
}

func TestAddKeepsHigherConfidence(t *testing.T) {
	st := New(nil, nil)
	st.AddFact(rdf.Resource("A"), rdf.Token("p"), rdf.Resource("B"), rdf.SourceXKG, 0.3, rdf.NoProv)
	id := st.AddFact(rdf.Resource("A"), rdf.Token("p"), rdf.Resource("B"), rdf.SourceXKG, 0.8, rdf.NoProv)
	if got := st.Triple(id).Conf; got != 0.8 {
		t.Fatalf("kept conf %v, want 0.8", got)
	}
	// Lower-confidence re-add must not downgrade.
	st.AddFact(rdf.Resource("A"), rdf.Token("p"), rdf.Resource("B"), rdf.SourceXKG, 0.1, rdf.NoProv)
	if got := st.Triple(id).Conf; got != 0.8 {
		t.Fatalf("conf downgraded to %v", got)
	}
	if st.NumXKG() != 1 {
		t.Fatalf("NumXKG = %d, want 1", st.NumXKG())
	}
}

func TestAddRejectsBadConfidence(t *testing.T) {
	st := New(nil, nil)
	for _, conf := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add with conf %v did not panic", conf)
				}
			}()
			st.AddFact(rdf.Resource("A"), rdf.Token("p"), rdf.Resource("B"), rdf.SourceXKG, conf, rdf.NoProv)
		}()
	}
}

func TestAddAfterFreezePanics(t *testing.T) {
	st := figure1()
	st.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("Add after Freeze did not panic")
		}
	}()
	st.AddKG(rdf.Resource("X"), rdf.Resource("p"), rdf.Resource("Y"))
}

func TestMatchBeforeFreezePanics(t *testing.T) {
	st := figure1()
	defer func() {
		if recover() == nil {
			t.Fatal("Match before Freeze did not panic")
		}
	}()
	st.Match(rdf.NoTerm, rdf.NoTerm, rdf.NoTerm)
}

func TestMatchAllBoundCombinations(t *testing.T) {
	st := figure1()
	extend(st)
	st.Freeze()

	einstein := term(st, rdf.Resource("AlbertEinstein"))
	bornIn := term(st, rdf.Resource("bornIn"))
	ulm := term(st, rdf.Resource("Ulm"))
	princeton := term(st, rdf.Resource("PrincetonUniversity"))

	tests := []struct {
		name    string
		s, p, o rdf.TermID
		want    int
	}{
		{"SPO bound hit", einstein, bornIn, ulm, 1},
		{"SPO bound miss", ulm, bornIn, einstein, 0},
		{"SP bound", einstein, bornIn, rdf.NoTerm, 1},
		{"SO bound", einstein, rdf.NoTerm, princeton, 1}, // lectured at
		{"PO bound", bornIn, rdf.NoTerm, ulm, 0},         // wrong arg order for PO: bornIn as P, Ulm as O -> 1 actually
		{"S bound", einstein, rdf.NoTerm, rdf.NoTerm, 6},
		{"P bound", rdf.NoTerm, bornIn, rdf.NoTerm, 1},
		{"O bound", rdf.NoTerm, rdf.NoTerm, princeton, 2}, // housed in, lectured at
		{"all wildcards", rdf.NoTerm, rdf.NoTerm, rdf.NoTerm, 10},
	}
	// Fix the PO case: pattern (?, bornIn, Ulm) matches AlbertEinstein bornIn Ulm.
	tests[4].want = 1
	tests[4].s, tests[4].p, tests[4].o = rdf.NoTerm, bornIn, ulm

	for _, tc := range tests {
		got := st.Match(tc.s, tc.p, tc.o)
		if len(got) != tc.want {
			t.Errorf("%s: got %d matches, want %d", tc.name, len(got), tc.want)
		}
		if n := st.Count(tc.s, tc.p, tc.o); n != tc.want {
			t.Errorf("%s: Count = %d, want %d", tc.name, n, tc.want)
		}
		for _, id := range got {
			tr := st.Triple(id)
			if tc.s != rdf.NoTerm && tr.S != tc.s {
				t.Errorf("%s: matched triple has wrong S", tc.name)
			}
			if tc.p != rdf.NoTerm && tr.P != tc.p {
				t.Errorf("%s: matched triple has wrong P", tc.name)
			}
			if tc.o != rdf.NoTerm && tr.O != tc.o {
				t.Errorf("%s: matched triple has wrong O", tc.name)
			}
		}
	}
}

func TestMatchUnknownTerm(t *testing.T) {
	st := figure1()
	st.Freeze()
	// A term interned but never used in a triple must match nothing.
	ghost := st.Dict().InternResource("Ghost")
	if got := st.Match(ghost, rdf.NoTerm, rdf.NoTerm); len(got) != 0 {
		t.Fatalf("ghost subject matched %d triples", len(got))
	}
}

func TestContains(t *testing.T) {
	st := figure1()
	st.Freeze()
	e := term(st, rdf.Resource("AlbertEinstein"))
	b := term(st, rdf.Resource("bornIn"))
	u := term(st, rdf.Resource("Ulm"))
	if !st.Contains(e, b, u) {
		t.Fatal("Contains missed a stored fact")
	}
	if st.Contains(u, b, e) {
		t.Fatal("Contains found a reversed fact")
	}
}

// Property: Match agrees with a naive scan over all triples, for random
// stores and random patterns.
func TestMatchEquivalentToNaiveScanProperty(t *testing.T) {
	gen := rand.New(rand.NewSource(42))
	for round := 0; round < 30; round++ {
		st := New(nil, nil)
		nTerms := 2 + gen.Intn(8)
		terms := make([]rdf.TermID, nTerms)
		for i := range terms {
			terms[i] = st.Dict().InternResource(string(rune('A' + i)))
		}
		nTriples := gen.Intn(60)
		for i := 0; i < nTriples; i++ {
			st.Add(rdf.Triple{
				S:      terms[gen.Intn(nTerms)],
				P:      terms[gen.Intn(nTerms)],
				O:      terms[gen.Intn(nTerms)],
				Source: rdf.SourceKG,
				Conf:   1,
			})
		}
		st.Freeze()
		pick := func() rdf.TermID {
			if gen.Intn(2) == 0 {
				return rdf.NoTerm
			}
			return terms[gen.Intn(nTerms)]
		}
		for q := 0; q < 40; q++ {
			s, p, o := pick(), pick(), pick()
			got := st.Match(s, p, o)
			want := 0
			for id := 0; id < st.Len(); id++ {
				tr := st.Triple(ID(id))
				if (s == rdf.NoTerm || tr.S == s) && (p == rdf.NoTerm || tr.P == p) && (o == rdf.NoTerm || tr.O == o) {
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("round %d: Match(%d,%d,%d) = %d triples, naive scan = %d", round, s, p, o, len(got), want)
			}
			seen := make(map[ID]bool)
			for _, id := range got {
				if seen[id] {
					t.Fatalf("Match returned duplicate ID %d", id)
				}
				seen[id] = true
			}
		}
	}
}

func TestPredicatesAndArgs(t *testing.T) {
	st := figure1()
	extend(st)
	st.Freeze()
	preds := st.Predicates()
	// Figure 1 has 6 distinct predicates, Figure 3 adds 4 token predicates.
	if len(preds) != 10 {
		t.Fatalf("Predicates: got %d, want 10", len(preds))
	}
	for i := 1; i < len(preds); i++ {
		if preds[i-1].Pred >= preds[i].Pred {
			t.Fatal("Predicates not in ascending TermID order")
		}
	}
	bornIn := term(st, rdf.Resource("bornIn"))
	args := st.Match(rdf.NoTerm, bornIn, rdf.NoTerm)
	if len(args) != 1 {
		t.Fatalf("args(bornIn) = %d pairs, want 1", len(args))
	}
	e := term(st, rdf.Resource("AlbertEinstein"))
	u := term(st, rdf.Resource("Ulm"))
	if tr := st.Triple(args[0]); tr.S != e || tr.O != u {
		t.Fatal("args(bornIn) missing (AlbertEinstein, Ulm)")
	}
}

func TestStats(t *testing.T) {
	st := figure1()
	extend(st)
	st.Freeze()
	s := st.Stats()
	if s.Triples != 10 || s.KGTriples != 6 || s.XKGTriples != 4 {
		t.Fatalf("triple counts = %+v", s)
	}
	if s.Predicates != 10 || s.TokenPreds != 4 || s.ResourcePreds != 6 {
		t.Fatalf("predicate counts = %+v", s)
	}
	if s.Literals != 1 {
		t.Fatalf("literal count = %d, want 1", s.Literals)
	}
	if s.ProvenanceRecs != 1 {
		t.Fatalf("provenance count = %d, want 1", s.ProvenanceRecs)
	}
}

func TestMatchTokenFindsPhrases(t *testing.T) {
	st := figure1()
	extend(st)
	st.Freeze()

	// The §2 example: the user types 'won nobel for'; it must resolve to
	// the XKG predicate 'won Nobel for' with similarity 1.
	got := st.MatchToken("won nobel for", MaskToken, 0.1, 5)
	if len(got) == 0 {
		t.Fatal("MatchToken found nothing for 'won nobel for'")
	}
	best := st.Dict().Term(got[0].Term)
	if best.Text != "won Nobel for" || got[0].Sim != 1 {
		t.Fatalf("best match = %v (sim %v), want 'won Nobel for' sim 1", best, got[0].Sim)
	}
}

func TestMatchTokenKindMask(t *testing.T) {
	st := figure1()
	extend(st)
	st.Freeze()

	// "princeton university" should match the resource PrincetonUniversity
	// when resources are allowed, and nothing when only tokens are.
	res := st.MatchToken("princeton university", MaskResource, 0.5, 5)
	if len(res) != 1 || st.Dict().Term(res[0].Term).Text != "PrincetonUniversity" {
		t.Fatalf("resource match = %v", res)
	}
	tok := st.MatchToken("princeton university", MaskToken, 0.99, 5)
	if len(tok) != 0 {
		t.Fatalf("token-only match should be empty at high threshold, got %v", tok)
	}
}

func TestMatchTokenLimitAndOrder(t *testing.T) {
	st := New(nil, nil)
	st.AddFact(rdf.Resource("A"), rdf.Token("won prize"), rdf.Resource("B"), rdf.SourceXKG, 0.5, rdf.NoProv)
	st.AddFact(rdf.Resource("A"), rdf.Token("won a big prize"), rdf.Resource("B"), rdf.SourceXKG, 0.5, rdf.NoProv)
	st.AddFact(rdf.Resource("A"), rdf.Token("won the nobel prize in physics"), rdf.Resource("B"), rdf.SourceXKG, 0.5, rdf.NoProv)
	st.Freeze()
	got := st.MatchToken("won prize", MaskToken, 0, 0)
	if len(got) != 3 {
		t.Fatalf("got %d candidates, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Sim < got[i].Sim {
			t.Fatal("candidates not sorted by descending similarity")
		}
	}
	if st.Dict().Term(got[0].Term).Text != "won prize" {
		t.Fatalf("best candidate = %v", st.Dict().Term(got[0].Term))
	}
	if lim := st.MatchToken("won prize", MaskToken, 0, 2); len(lim) != 2 {
		t.Fatalf("limit ignored: %d results", len(lim))
	}
}

func TestMatchTokenOnlyIndexesUsedTerms(t *testing.T) {
	st := New(nil, nil)
	st.AddFact(rdf.Resource("A"), rdf.Token("won prize"), rdf.Resource("B"), rdf.SourceXKG, 0.5, rdf.NoProv)
	// Interned but not used in any triple: must not be suggested.
	st.Dict().InternToken("won everything")
	st.Freeze()
	got := st.MatchToken("won", MaskToken, 0, 0)
	if len(got) != 1 {
		t.Fatalf("got %d candidates, want only the used term: %v", len(got), got)
	}
}

func TestFreezeIdempotent(t *testing.T) {
	st := figure1()
	st.Freeze()
	st.Freeze() // must not panic or rebuild incorrectly
	if !st.Frozen() {
		t.Fatal("store not frozen")
	}
	if n := len(st.Match(rdf.NoTerm, rdf.NoTerm, rdf.NoTerm)); n != 6 {
		t.Fatalf("after double freeze, match-all = %d", n)
	}
}

// Property (testing/quick): Count is consistent with len(Match) for
// arbitrary small ID patterns on a fixed store.
func TestCountMatchesLenProperty(t *testing.T) {
	st := figure1()
	extend(st)
	st.Freeze()
	maxID := rdf.TermID(st.Dict().Len())
	f := func(s, p, o uint8) bool {
		sid := rdf.TermID(s) % (maxID + 1)
		pid := rdf.TermID(p) % (maxID + 1)
		oid := rdf.TermID(o) % (maxID + 1)
		return st.Count(sid, pid, oid) == len(st.Match(sid, pid, oid))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCountAllBoundCombinations asserts Count == len(Match) for every one
// of the 8 bound/unbound slot combinations, on present and absent terms,
// exercising the non-materialising binary-search range count.
func TestCountAllBoundCombinations(t *testing.T) {
	st := figure1()
	extend(st)
	st.Freeze()

	einstein := term(st, rdf.Resource("AlbertEinstein"))
	bornIn := term(st, rdf.Resource("bornIn"))
	ulm := term(st, rdf.Resource("Ulm"))
	housedIn := term(st, rdf.Token("housed in"))
	princeton := term(st, rdf.Resource("PrincetonUniversity"))
	absent := rdf.TermID(st.Dict().Len() + 7)

	subjects := []rdf.TermID{rdf.NoTerm, einstein, ulm, absent}
	predicates := []rdf.TermID{rdf.NoTerm, bornIn, housedIn, absent}
	objects := []rdf.TermID{rdf.NoTerm, ulm, princeton, absent}

	combos := 0
	seen := make(map[[3]bool]bool)
	for _, s := range subjects {
		for _, p := range predicates {
			for _, o := range objects {
				got := st.Count(s, p, o)
				want := len(st.Match(s, p, o))
				if got != want {
					t.Errorf("Count(%d,%d,%d) = %d, want len(Match) = %d", s, p, o, got, want)
				}
				combos++
				seen[[3]bool{s != rdf.NoTerm, p != rdf.NoTerm, o != rdf.NoTerm}] = true
			}
		}
	}
	if len(seen) != 8 {
		t.Fatalf("covered %d of 8 bound/unbound combinations", len(seen))
	}
	// Sanity anchors: a known range and the two index-free fast paths.
	if st.Count(rdf.NoTerm, bornIn, rdf.NoTerm) != 1 {
		t.Errorf("Count(*, bornIn, *) = %d, want 1", st.Count(rdf.NoTerm, bornIn, rdf.NoTerm))
	}
	if st.Count(einstein, bornIn, ulm) != 1 {
		t.Errorf("fully bound present fact: count != 1")
	}
	if st.Count(rdf.NoTerm, rdf.NoTerm, rdf.NoTerm) != st.Len() {
		t.Errorf("unbounded count = %d, want %d", st.Count(rdf.NoTerm, rdf.NoTerm, rdf.NoTerm), st.Len())
	}
}

// TestCountDoesNotRequireFreezeForTrivialCases covers the two patterns
// answerable without permutation indexes.
func TestCountDoesNotRequireFreezeForTrivialCases(t *testing.T) {
	st := figure1()
	if st.Count(rdf.NoTerm, rdf.NoTerm, rdf.NoTerm) != st.Len() {
		t.Fatal("unfrozen unbounded count wrong")
	}
	einstein := term(st, rdf.Resource("AlbertEinstein"))
	bornIn := term(st, rdf.Resource("bornIn"))
	ulm := term(st, rdf.Resource("Ulm"))
	if st.Count(einstein, bornIn, ulm) != 1 {
		t.Fatal("unfrozen fully bound count wrong")
	}
}

// TestStatsFrozenMatchesUnfrozen: Freeze precomputes predicate statistics;
// the snapshot must agree exactly with the scan-based computation, and
// terms interned into the shared dictionary after Freeze must still be
// counted.
func TestStatsFrozenMatchesUnfrozen(t *testing.T) {
	st := figure1()
	extend(st)
	before := st.Stats()
	beforePreds := st.Predicates()
	st.Freeze()
	after := st.Stats()
	if before != after {
		t.Fatalf("Stats changed across Freeze:\nbefore %+v\nafter  %+v", before, after)
	}
	afterPreds := st.Predicates()
	if len(beforePreds) != len(afterPreds) {
		t.Fatalf("Predicates: %d before Freeze, %d after", len(beforePreds), len(afterPreds))
	}
	for i := range beforePreds {
		if beforePreds[i] != afterPreds[i] {
			t.Fatalf("Predicates[%d]: %+v before Freeze, %+v after", i, beforePreds[i], afterPreds[i])
		}
	}
	// The returned snapshot must be a copy: mutating it cannot corrupt
	// later calls.
	afterPreds[0].Count = -1
	if st.Predicates()[0].Count == -1 {
		t.Fatal("Predicates returned its internal snapshot")
	}
	// Post-freeze interning (query-time components share the dictionary)
	// shows up in term counts without a dictionary rescan.
	st.Dict().InternToken("fresh post-freeze token")
	s := st.Stats()
	if s.Tokens != after.Tokens+1 || s.Terms != after.Terms+1 {
		t.Fatalf("post-freeze intern not counted: %+v vs %+v", s, after)
	}
}

// TestMatchEachAgreesWithMatch: the streaming iterator must visit exactly
// the IDs Match returns, in the same order, for every slot combination,
// and honour early termination.
func TestMatchEachAgreesWithMatch(t *testing.T) {
	st := figure1()
	extend(st)
	st.Freeze()
	ae := term(st, rdf.Resource("AlbertEinstein"))
	born := term(st, rdf.Resource("bornIn"))
	ulm := term(st, rdf.Resource("Ulm"))
	for _, tc := range [][3]rdf.TermID{
		{rdf.NoTerm, rdf.NoTerm, rdf.NoTerm},
		{ae, rdf.NoTerm, rdf.NoTerm},
		{rdf.NoTerm, born, rdf.NoTerm},
		{rdf.NoTerm, rdf.NoTerm, ulm},
		{ae, born, rdf.NoTerm},
		{ae, rdf.NoTerm, ulm},
		{rdf.NoTerm, born, ulm},
		{ae, born, ulm},
	} {
		want := st.Match(tc[0], tc[1], tc[2])
		var got []ID
		st.MatchEach(tc[0], tc[1], tc[2], func(id ID) bool {
			got = append(got, id)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("MatchEach(%v) visited %d IDs, Match returned %d", tc, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("MatchEach(%v) order differs at %d: %d vs %d", tc, i, got[i], want[i])
			}
		}
	}
	// Early termination stops after the first ID.
	visited := 0
	st.MatchEach(rdf.NoTerm, rdf.NoTerm, rdf.NoTerm, func(ID) bool {
		visited++
		return false
	})
	if visited != 1 {
		t.Fatalf("early-terminated MatchEach visited %d IDs, want 1", visited)
	}
}

// TestMatchZeroCopyViewsStayConsistent: partially bound and unbound
// matches are views into the frozen index; repeated calls must return
// identical contents (the store is immutable, so views never go stale).
func TestMatchZeroCopyViewsStayConsistent(t *testing.T) {
	st := figure1()
	extend(st)
	st.Freeze()
	born := term(st, rdf.Resource("bornIn"))
	a := st.Match(rdf.NoTerm, born, rdf.NoTerm)
	b := st.Match(rdf.NoTerm, born, rdf.NoTerm)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("inconsistent view lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("views differ at %d", i)
		}
	}
	if &a[0] != &b[0] {
		t.Error("partially bound Match materialised a copy; want a zero-copy view")
	}
	all1 := st.Match(rdf.NoTerm, rdf.NoTerm, rdf.NoTerm)
	all2 := st.Match(rdf.NoTerm, rdf.NoTerm, rdf.NoTerm)
	if &all1[0] != &all2[0] {
		t.Error("unbound Match materialised a copy; want a zero-copy view")
	}
}

// TestTermTokenSet: Freeze precomputes per-term token sets identical to
// on-the-fly tokenization, and terms interned after Freeze still resolve.
func TestTermTokenSet(t *testing.T) {
	st := figure1()
	extend(st)
	st.Freeze()
	st.Dict().All(func(id rdf.TermID, tm rdf.Term) bool {
		got := st.TermTokenSet(id)
		want := text.NewTokenSet(tm.Text)
		if len(got) != len(want) {
			t.Fatalf("term %q: set size %d, want %d", tm.Text, len(got), len(want))
		}
		for w := range want {
			if !got[w] {
				t.Fatalf("term %q: set missing %q", tm.Text, w)
			}
		}
		return true
	})
	// Post-freeze interning falls back to on-the-fly tokenization.
	late := st.Dict().InternToken("freshly interned phrase")
	if got := st.TermTokenSet(late); !got["freshly"] || !got["interned"] || !got["phrase"] {
		t.Fatalf("post-freeze TermTokenSet = %v", got)
	}
}
