// Package suggest implements TriniT's query-suggestion features (§5):
//
//   - auto-completion of KG resources and XKG token phrases while typing;
//   - token → resource suggestions: when the matches of a textual token
//     overlap significantly with the matches of a highly related KG
//     resource, the canonical resource is suggested for future queries;
//   - structural-rule notices: when a structural relaxation (e.g. a
//     predicate inversion) contributed to the answers, the user is told,
//     gradually teaching them the KG's structure.
package suggest

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/store"
	"trinit/internal/text"
	"trinit/internal/topk"
)

// memoCap bounds the per-version suggestion memo. A client sending
// endless distinct tokens gets suggestions computed without being stored
// once the memo is full, so memory stays bounded.
const memoCap = 4096

// Suggester provides completions and reformulation suggestions over one
// frozen store. It is safe for concurrent use.
type Suggester struct {
	st *store.Store
	// MinOverlap is the match-overlap threshold for token → resource
	// suggestions. It is applied when a memoised suggestion is read, so
	// changing it after New takes effect immediately.
	MinOverlap float64

	trieOnce sync.Once
	trie     *text.Trie

	mu   sync.RWMutex
	memo map[memoKey]bestResource
}

// memoKey identifies one token → resource computation: the token text as
// written, in predicate or subject/object role.
type memoKey struct {
	pred bool
	tok  string
}

// bestResource is a token's unthresholded best resource: NoTerm when no
// resource overlaps, else the resource with its overlap (predicate role)
// or label similarity (subject/object role).
type bestResource struct {
	res     rdf.TermID
	overlap float64
}

// New returns a suggester over st, which must be frozen before the first
// Suggest or Complete. It does no work up front: token suggestions are
// computed on first request and memoised, and the completion trie is
// built on the first Complete.
func New(st *store.Store) *Suggester {
	return &Suggester{st: st, MinOverlap: 0.3, memo: make(map[memoKey]bestResource)}
}

// completionTrie builds the completion trie once, weighting each term by
// how often it occurs in triples so that prominent entities and
// predicates surface first.
func (s *Suggester) completionTrie() *text.Trie {
	s.trieOnce.Do(func() {
		st := s.st
		freq := make(map[rdf.TermID]int)
		for i := 0; i < st.Len(); i++ {
			t := st.Triple(store.ID(i))
			freq[t.S]++
			freq[t.P]++
			freq[t.O]++
		}
		ids := make([]rdf.TermID, 0, len(freq))
		for id := range freq {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		trie := text.NewTrie()
		for _, id := range ids {
			trie.Insert(st.Dict().Term(id).Text, uint32(id), float64(freq[id]))
		}
		s.trie = trie
	})
	return s.trie
}

// Complete returns up to limit auto-completions for a prefix the user is
// typing into an S, P or O field.
func (s *Suggester) Complete(prefix string, limit int) []text.Completion {
	return s.completionTrie().Complete(prefix, limit)
}

// TokenSuggestion proposes replacing a textual token of the query with a
// canonical KG resource.
type TokenSuggestion struct {
	// Token is the user's textual token.
	Token string
	// Resource is the suggested canonical resource.
	Resource string
	// Overlap is the fraction of the token's matches that the
	// resource's matches cover.
	Overlap float64
	// Position describes where in the query the token occurred,
	// e.g. "pattern 1, predicate".
	Position string
}

// Suggest computes token → resource suggestions for every textual token in
// the query. For a token in predicate position, candidate KG predicates are
// compared by argument-pair overlap; for subject/object tokens, candidate
// resources are compared by the overlap of the triple sets they match.
func (s *Suggester) Suggest(q *query.Query) []TokenSuggestion {
	var out []TokenSuggestion
	for pi, p := range q.Patterns {
		slots := [3]query.Slot{p.S, p.P, p.O}
		roles := [3]string{"subject", "predicate", "object"}
		for si, sl := range slots {
			if sl.IsVar() || sl.Term.Kind != rdf.KindToken {
				continue
			}
			best := s.best(si == 1, sl.Term.Text)
			if best.res == rdf.NoTerm || best.overlap < s.MinOverlap {
				continue
			}
			out = append(out, TokenSuggestion{
				Token:    sl.Term.Text,
				Resource: s.st.Dict().Term(best.res).Text,
				Overlap:  best.overlap,
				Position: "pattern " + strconv.Itoa(pi+1) + ", " + roles[si],
			})
		}
	}
	return out
}

// best returns the memoised best resource for a token, computing it on a
// miss. Concurrent misses on one key compute the same value; the memo stops
// growing at memoCap entries.
func (s *Suggester) best(pred bool, tok string) bestResource {
	key := memoKey{pred: pred, tok: tok}
	s.mu.RLock()
	b, ok := s.memo[key]
	s.mu.RUnlock()
	if ok {
		return b
	}
	if pred {
		b = s.predicateBest(tok)
	} else {
		b = s.entityBest(tok)
	}
	s.mu.Lock()
	if len(s.memo) < memoCap {
		s.memo[key] = b
	}
	s.mu.Unlock()
	return b
}

// predicateBest finds the KG predicate whose argument pairs best cover
// the argument pairs of the token predicate's matches: the largest
// overlap, ties to the lowest TermID. It reads each pair's predicates off
// the osp index instead of materialising every predicate's argument set.
func (s *Suggester) predicateBest(tok string) bestResource {
	pairs := make(map[[2]rdf.TermID]struct{})
	for _, cand := range s.st.MatchToken(tok, store.MaskToken, 0.5, 0) {
		for _, id := range s.st.Match(rdf.NoTerm, cand.Term, rdf.NoTerm) {
			t := s.st.Triple(id)
			pairs[[2]rdf.TermID{t.S, t.O}] = struct{}{}
		}
	}
	// inter counts, per predicate, the token pairs it connects: each
	// triple key is unique, so a predicate appears once per pair.
	inter := make(map[rdf.TermID]int)
	for pr := range pairs {
		for _, id := range s.st.Match(pr[0], rdf.NoTerm, pr[1]) {
			inter[s.st.Triple(id).P]++
		}
	}
	var best rdf.TermID
	n := 0
	dict := s.st.Dict()
	for p, c := range inter {
		if (c > n || c == n && p < best) && dict.Term(p).Kind == rdf.KindResource {
			best, n = p, c
		}
	}
	if n == 0 {
		return bestResource{}
	}
	return bestResource{res: best, overlap: float64(n) / float64(len(pairs))}
}

// entityBest finds the KG resource whose label is most similar to a
// subject/object token.
func (s *Suggester) entityBest(tok string) bestResource {
	cands := s.st.MatchToken(tok, store.MaskResource, 0, 1)
	if len(cands) == 0 {
		return bestResource{}
	}
	return bestResource{res: cands[0].Term, overlap: cands[0].Sim}
}

// Notice informs the user that a structural relaxation contributed to the
// answer set (§5: "When a structural relaxation rule ... is invoked and
// contributes to the final answer set, TriniT informs the user").
type Notice struct {
	RuleID  string
	Origin  string
	Rule    string
	Message string
	// Answers counts how many of the returned answers used the rule.
	Answers int
}

// RuleNotices inspects the answers' best derivations and reports each rule
// that contributed, with a human-readable message.
func RuleNotices(answers []topk.Answer) []Notice {
	type agg struct {
		notice Notice
	}
	byID := make(map[string]*agg)
	var order []string
	for _, a := range answers {
		for _, r := range a.Derivation.Rewrite.Applied {
			if _, ok := byID[r.ID]; !ok {
				msg := fmt.Sprintf("relaxation %q (%s, weight %.2f) contributed to the answers", r.ID, r.Origin, r.Weight)
				if r.Origin == "inversion" {
					msg = fmt.Sprintf("your query's predicate runs in the opposite direction in the KG; rule %q inverted it", r.ID)
				}
				byID[r.ID] = &agg{notice: Notice{
					RuleID:  r.ID,
					Origin:  r.Origin,
					Rule:    r.String(),
					Message: msg,
				}}
				order = append(order, r.ID)
			}
			byID[r.ID].notice.Answers++
		}
	}
	out := make([]Notice, 0, len(order))
	for _, id := range order {
		out = append(out, byID[id].notice)
	}
	return out
}
