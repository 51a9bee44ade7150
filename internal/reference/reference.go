// Package reference is the test oracle of the top-k processor: a
// nested-loop evaluator small enough to audit by eye. Per rewrite it
// walks the cross product of the patterns' full match lists, built by
// the wildcard scan, in query-text order, keeps the combinations whose
// shared variables agree and that pass the filters, scores each as W·Πp,
// keeps the maximum per answer key and ranks. It has no token index,
// hash buckets, semi-join, score bounds, planner or cache. Import it
// from _test.go files only.
package reference

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/relax"
	"trinit/internal/score"
)

// Answer is one ranked answer. Key is the binding key over the projected
// variables in topk.AnswerKey's format, which also breaks score ties.
type Answer struct {
	Key   string
	Score float64
}

// Evaluate returns every answer of the rewrite space over proj, ranked by
// descending score, ties by key. m must be configured like the
// processor's matcher.
func Evaluate(m *score.Matcher, proj []string, rewrites []relax.Rewrite) []Answer {
	best := map[string]float64{}
	for _, rw := range rewrites {
		lists := make([][]score.Match, len(rw.Query.Patterns))
		for i, p := range rw.Query.Patterns {
			lists[i], _ = m.MatchPatternScan(p)
		}
		b := map[string]rdf.TermID{}
		var join func(i int, prod float64)
		join = func(i int, prod float64) {
			if i == len(lists) {
				key, ok := answerKey(b, proj)
				if s, seen := best[key]; ok && passes(m, rw.Query.Filters, b) && (!seen || rw.Weight*prod > s) {
					best[key] = rw.Weight * prod
				}
				return
			}
			for _, mt := range lists[i] {
				var added []string
				ok := true
				for _, bd := range mt.Bindings {
					if t, bound := b[bd.Var]; !bound {
						b[bd.Var] = bd.Term
						added = append(added, bd.Var)
					} else if t != bd.Term {
						ok = false
					}
				}
				if ok {
					join(i+1, prod*mt.Prob)
				}
				for _, v := range added {
					delete(b, v)
				}
			}
		}
		join(0, 1)
	}
	out := make([]Answer, 0, len(best))
	for k, s := range best {
		out = append(out, Answer{k, s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// answerKey renders the binding's key; false if a projected variable is
// unbound.
func answerKey(b map[string]rdf.TermID, proj []string) (string, bool) {
	var buf []byte
	for _, v := range proj {
		t, ok := b[v]
		if !ok {
			return "", false
		}
		buf = append(strconv.AppendUint(append(append(buf, v...), '='), uint64(t), 10), ';')
	}
	return string(buf), true
}

// passes applies the filters; an unbound variable reads as rdf.NoTerm.
func passes(m *score.Matcher, filters []query.Filter, b map[string]rdf.TermID) bool {
	for _, f := range filters {
		rhs := f.Value.Text
		if f.RHSVar != "" {
			rhs = m.St.Dict().Term(b[f.RHSVar]).Text
		}
		if !query.EvalFilter(f.Op, m.St.Dict().Term(b[f.Var]).Text, rhs) {
			return false
		}
	}
	return true
}

// Check reports how got, a ranking of at most k answers, departs from the
// reference ranking want. The processor multiplies in join order and the
// reference in text order, so scores agree within a relative 1e-12 —
// position by position, and per answer against its key's reference score.
func Check(want []Answer, k int, got []Answer) error {
	if n := min(k, len(want)); len(got) != n {
		return fmt.Errorf("%d answers, reference has %d", len(got), n)
	}
	ref := make(map[string]float64, len(want))
	for _, a := range want {
		ref[a.Key] = a.Score
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(a, b) }
	for i, a := range got {
		if s, ok := ref[a.Key]; !ok || !near(a.Score, s) || !near(a.Score, want[i].Score) {
			return fmt.Errorf("rank %d is %s at %v; reference: that key at %v (present %v), rank %d is %s at %v",
				i, a.Key, a.Score, s, ok, i, want[i].Key, want[i].Score)
		}
	}
	return nil
}
