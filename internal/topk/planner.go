package topk

// This file implements statistics-free greedy join planning: patterns of
// a rewrite are ordered by ascending estimated selectivity before any
// match list is built, so that (a) an empty pattern aborts the rewrite
// before the expensive lists of its siblings are materialised, and (b)
// join enumeration starts from the smallest lists, shrinking the branch
// space. Estimates come straight from the store's permutation indexes (a
// binary-search range count for bound slots) and from the inverted token
// index (for textual token slots); no maintained statistics are needed —
// the index is the statistic.

import (
	"sort"

	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/store"
)

// maxTokenCandidates bounds the per-token-slot refinement work: when a
// textual token resolves to more candidate terms than this, the planner
// falls back to the unrefined index-range count.
const maxTokenCandidates = 24

// estimateSelectivity estimates the match-list length of one pattern.
// Bound resource/literal slots contribute an exact permutation-index range
// count; token slots are refined by summing range counts over the token's
// inverted-index candidates. 0 means the pattern provably has no matches.
// resolve supplies the candidate terms of a token slot — the same shared
// resolution the matcher consumes, so planning never re-runs an
// inverted-index lookup the list build will need anyway (nil falls back to
// direct store.MatchToken calls).
func estimateSelectivity(st *store.Store, p query.Pattern, minTokenSim float64, resolve func(tok string, minSim float64) []store.ScoredTerm) int {
	if resolve == nil {
		resolve = func(tok string, minSim float64) []store.ScoredTerm {
			return st.MatchToken(tok, store.MaskAny, minSim, 0)
		}
	}
	var ids [3]rdf.TermID
	var toks [3]string
	slots := [3]query.Slot{p.S, p.P, p.O}
	for i, sl := range slots {
		switch {
		case sl.IsVar():
			// wildcard
		case sl.Term.Kind == rdf.KindToken:
			toks[i] = sl.Term.Text
		default:
			id, ok := st.Dict().Lookup(sl.Term)
			if !ok {
				return 0
			}
			ids[i] = id
		}
	}
	est := st.Count(ids[0], ids[1], ids[2])
	if est == 0 {
		return 0
	}
	for i, tok := range toks {
		if tok == "" {
			continue
		}
		cands := resolve(tok, minTokenSim)
		if len(cands) == 0 {
			return 0
		}
		if len(cands) > maxTokenCandidates {
			continue
		}
		sum := 0
		for _, c := range cands {
			probe := ids
			probe[i] = c.Term
			sum += st.Count(probe[0], probe[1], probe[2])
		}
		if sum < est {
			est = sum
		}
	}
	return est
}

// plan orders the pattern indices of one rewrite by ascending estimated
// selectivity (stable, so ties keep query-text order). keyOf supplies the
// pattern cache key — runs pass their memoised patKey so planning a
// rewrite does not re-render pattern strings the evaluation already
// rendered.
func (ex *Executor) plan(pats []query.Pattern, keyOf func(query.Pattern) string) []int {
	order := make([]int, len(pats))
	for i := range order {
		order[i] = i
	}
	if len(pats) <= 1 {
		return order
	}
	est := make([]int, len(pats))
	for i, p := range pats {
		pat := p
		est[i] = ex.cache.estimate("est\x00"+keyOf(pat), func() int {
			return estimateSelectivity(ex.st, pat, ex.matcher.MinTokenSim, ex.matcher.Resolver)
		})
	}
	sort.SliceStable(order, func(a, b int) bool { return est[order[a]] < est[order[b]] })
	reordered := false
	for i, pi := range order {
		if pi != i {
			reordered = true
			break
		}
	}
	ex.cache.notePlan(reordered)
	return order
}
