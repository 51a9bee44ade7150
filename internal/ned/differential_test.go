package ned_test

import (
	"math"
	"testing"

	"trinit/internal/dataset"
	"trinit/internal/ned"
	"trinit/internal/openie"
	"trinit/internal/rdf"
	"trinit/internal/store"
	"trinit/internal/text"
)

// head is what Link must return according to Candidates: its first
// candidate when that reaches MinScore.
func head(l *ned.Linker, mention, sentence string) (rdf.TermID, float64, bool) {
	cands := l.Candidates(mention, sentence)
	if len(cands) == 0 || cands[0].Score < l.MinScore {
		return rdf.NoTerm, 0, false
	}
	return cands[0].Entity, cands[0].Score, true
}

// TestLinkIsHeadOfCandidates checks the one-pass Link and LinkTokens
// against the sorted Candidates list over every (mention, sentence) pair
// the default corpus's extractions produce: entity, score bits and ok
// must all agree.
func TestLinkIsHeadOfCandidates(t *testing.T) {
	w := dataset.Generate(dataset.DefaultConfig())
	st := store.New(nil, nil)
	w.PopulateKG(st)
	l := ned.NewLinker(st)
	pairs, linked := 0, 0
	for _, doc := range w.Docs() {
		for _, sent := range openie.SplitSentences(doc.Text) {
			ctx := text.NewTokenSet(sent)
			for _, e := range openie.ExtractSentence(sent) {
				for _, m := range []string{e.Arg1, e.Arg2} {
					want, wantScore, wantOK := head(l, m, sent)
					got, score, ok := l.Link(m, sent)
					if got != want || math.Float64bits(score) != math.Float64bits(wantScore) || ok != wantOK {
						t.Fatalf("Link(%q, %q) = %v %v %v, head of Candidates = %v %v %v", m, sent, got, score, ok, want, wantScore, wantOK)
					}
					got, score, ok = l.LinkTokens(m, ctx)
					if got != want || math.Float64bits(score) != math.Float64bits(wantScore) || ok != wantOK {
						t.Fatalf("LinkTokens(%q, %q) = %v %v %v, head of Candidates = %v %v %v", m, sent, got, score, ok, want, wantScore, wantOK)
					}
					pairs++
					if ok {
						linked++
					}
				}
			}
		}
	}
	if pairs < 500 || linked == 0 || linked == pairs {
		t.Fatalf("%d pairs, %d linked: the corpus no longer exercises both outcomes", pairs, linked)
	}
}

// TestLinkTieGoesToLowerEntity gives two entities the same alias, weight,
// prior and context score: Candidates must list the lower term ID first,
// and Link and LinkTokens must pick it.
func TestLinkTieGoesToLowerEntity(t *testing.T) {
	st := store.New(nil, nil)
	st.AddKG(rdf.Resource("SpringfieldIllinois"), rdf.Resource("locatedIn"), rdf.Resource("Illinois"))
	st.AddKG(rdf.Resource("SpringfieldMassachusetts"), rdf.Resource("locatedIn"), rdf.Resource("Massachusetts"))
	l := ned.NewLinker(st)
	illinois, _ := st.Dict().Lookup(rdf.Resource("SpringfieldIllinois"))
	mass, _ := st.Dict().Lookup(rdf.Resource("SpringfieldMassachusetts"))
	low := min(illinois, mass)
	for _, sentence := range []string{"", "a town called Springfield", "Springfield is located in the state"} {
		cands := l.Candidates("Springfield", sentence)
		if len(cands) != 2 || cands[0].Score != cands[1].Score {
			t.Fatalf("%q: candidates %v, want two with equal scores", sentence, cands)
		}
		if cands[0].Entity != low {
			t.Fatalf("%q: Candidates lists %v first, want the lower ID %v", sentence, cands[0].Entity, low)
		}
		if got, _, ok := l.Link("Springfield", sentence); !ok || got != low {
			t.Fatalf("%q: Link = %v %v, want %v", sentence, got, ok, low)
		}
		if got, _, ok := l.LinkTokens("Springfield", text.NewTokenSet(sentence)); !ok || got != low {
			t.Fatalf("%q: LinkTokens = %v %v, want %v", sentence, got, ok, low)
		}
	}
}
