// Package ned implements named entity disambiguation: linking the noun
// phrases of Open-IE extractions to canonical KG entities.
//
// It stands in for the AIDA/Spotlight/TagMe tools mentioned in §2 of the
// paper. The linker is a dictionary-based scorer in the AIDA spirit: an
// alias table derived from entity labels, a popularity prior derived from
// KG degree, and a context score from token overlap between the mention's
// sentence and the labels of the entity's KG neighbourhood.
package ned

import (
	"maps"
	"slices"
	"sort"
	"strings"

	"trinit/internal/rdf"
	"trinit/internal/store"
	"trinit/internal/text"
)

// Linker resolves mention phrases to KG entities.
type Linker struct {
	st *store.Store
	// aliases maps a normalised alias string to candidate entities.
	aliases map[string][]candidate
	// context maps an entity to the token set of its KG neighbourhood.
	context map[rdf.TermID]text.TokenSet
	// MinScore is the linking threshold; mentions whose best candidate
	// scores below it stay unlinked token phrases.
	MinScore float64
}

type candidate struct {
	entity rdf.TermID
	// aliasWeight is 1 for the full label, lower for partial aliases.
	aliasWeight float64
	// prior is the degree-based popularity prior, normalised to (0, 1].
	prior float64
}

// Candidate is a scored linking candidate returned by Candidates.
type Candidate struct {
	Entity rdf.TermID
	Score  float64
}

// NewLinker builds a linker from the KG portion of a store. The store must
// contain the KG triples; it does not need to be frozen.
func NewLinker(st *store.Store) *Linker {
	l := &Linker{
		st:       st,
		aliases:  make(map[string][]candidate),
		context:  make(map[rdf.TermID]text.TokenSet),
		MinScore: 0.35,
	}
	l.build()
	return l
}

func (l *Linker) build() {
	dict := l.st.Dict()
	// Degree counts over KG triples for the popularity prior, and
	// neighbourhood token sets for the context score.
	degree := make(map[rdf.TermID]int)
	maxDegree := 1
	for i := 0; i < l.st.Len(); i++ {
		t := l.st.Triple(store.ID(i))
		if t.Source != rdf.SourceKG {
			continue
		}
		for _, id := range []rdf.TermID{t.S, t.O} {
			if dict.Term(id).Kind != rdf.KindResource {
				continue
			}
			degree[id]++
			if degree[id] > maxDegree {
				maxDegree = degree[id]
			}
		}
		l.addContext(t.S, dict.Term(t.O).Text)
		l.addContext(t.S, dict.Term(t.P).Text)
		l.addContext(t.O, dict.Term(t.S).Text)
		l.addContext(t.O, dict.Term(t.P).Text)
	}
	// Ascending entity order fixes the order of every alias's candidate
	// list, so Candidates and Link see the same list on every build.
	for _, id := range slices.Sorted(maps.Keys(degree)) {
		label := dict.Term(id).Text
		toks := text.ContentTokens(label)
		prior := float64(degree[id]) / float64(maxDegree)
		full := strings.Join(toks, " ")
		l.addAlias(full, id, 1.0, prior)
		// Partial aliases: each individual label token refers to the
		// entity with reduced weight ("Einstein" → AlbertEinstein,
		// "Princeton" → PrincetonUniversity).
		if len(toks) > 1 {
			for _, tok := range toks {
				l.addAlias(tok, id, 0.6, prior)
			}
		}
	}
}

func (l *Linker) addContext(id rdf.TermID, label string) {
	if l.st.Dict().Term(id).Kind != rdf.KindResource {
		return
	}
	set := l.context[id]
	if set == nil {
		set = make(text.TokenSet)
		l.context[id] = set
	}
	for _, tok := range text.ContentTokens(label) {
		set[tok] = true
	}
}

func (l *Linker) addAlias(alias string, id rdf.TermID, weight, prior float64) {
	if alias == "" {
		return
	}
	l.aliases[alias] = append(l.aliases[alias], candidate{entity: id, aliasWeight: weight, prior: prior})
}

// score is a candidate's linking score against a sentence's content-token
// set: aliasWeight × (0.5 + 0.5·prior) × (0.8 + 0.4·overlap(context,
// entity neighbourhood)), clipped to (0, 1]. An empty context gives the
// neutral boost 0.8.
func (l *Linker) score(c candidate, ctx text.TokenSet) float64 {
	base := c.aliasWeight * (0.5 + 0.5*c.prior)
	ctxBoost := 0.8
	if len(ctx) > 0 {
		ctxBoost = 0.8 + 0.4*text.Overlap(ctx, l.context[c.entity])
	}
	score := base * ctxBoost
	if score > 1 {
		score = 1
	}
	return score
}

// candidates returns the alias candidates of a mention.
func (l *Linker) candidates(mention string) []candidate {
	return l.aliases[text.Normalize(mention)]
}

// Candidates returns all candidates for the mention, scored and sorted by
// score descending, ties by ascending entity ID. context is the sentence
// the mention occurred in (may be empty).
func (l *Linker) Candidates(mention, context string) []Candidate {
	cands := l.candidates(mention)
	if len(cands) == 0 {
		return nil
	}
	ctx := text.NewTokenSet(context)
	out := make([]Candidate, 0, len(cands))
	for _, c := range cands {
		out = append(out, Candidate{Entity: c.entity, Score: l.score(c, ctx)})
	}
	sort.Slice(out, func(i, j int) bool { return better(out[i], out[j]) })
	return out
}

// better is the candidate order: score descending, ties by ascending
// entity ID.
func better(a, b Candidate) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Entity < b.Entity
}

// Link resolves a mention to its best entity, the head of Candidates. ok
// is false when no candidate reaches MinScore, in which case the mention
// should remain a token phrase.
func (l *Linker) Link(mention, context string) (entity rdf.TermID, score float64, ok bool) {
	cands := l.candidates(mention)
	if len(cands) == 0 {
		return rdf.NoTerm, 0, false
	}
	return l.best(cands, text.NewTokenSet(context))
}

// LinkTokens is Link against a context already tokenised with
// text.NewTokenSet, for callers that link several mentions of one
// sentence. The linker is read-only, so LinkTokens (like Link and
// Candidates) is safe for concurrent use.
func (l *Linker) LinkTokens(mention string, ctx text.TokenSet) (entity rdf.TermID, score float64, ok bool) {
	return l.best(l.candidates(mention), ctx)
}

// best picks the head of the candidate order in one pass, without
// building or sorting the scored list.
func (l *Linker) best(cands []candidate, ctx text.TokenSet) (rdf.TermID, float64, bool) {
	var top Candidate
	for i, c := range cands {
		cur := Candidate{Entity: c.entity, Score: l.score(c, ctx)}
		if i == 0 || better(cur, top) {
			top = cur
		}
	}
	if len(cands) == 0 || top.Score < l.MinScore {
		return rdf.NoTerm, 0, false
	}
	return top.Entity, top.Score, true
}
