package relax

import (
	"context"
	"slices"

	"trinit/internal/query"
	"trinit/internal/rdf"
)

// Rewrite is one node of the rewrite space: a (possibly) relaxed query, the
// sequence of rules that produced it, and the product of their weights. The
// original query is the Rewrite with no applied rules and weight 1.
type Rewrite struct {
	Query   *query.Query
	Applied []*Rule
	Weight  float64
}

// Expander enumerates the rewrite space of a query in best-first order of
// derivation weight. The space is otherwise prohibitively large (§4), so
// expansion is bounded by depth, count, and minimum weight; the top-k
// processor additionally opens rewrites lazily.
//
// NewExpander compiles the rule set once: token constants are normalised
// and rules are indexed by their first LHS pattern's predicate, so a
// rewrite meets only the rules that can match one of its predicates, in
// rule-set order. The compiled rule set never changes; set the bound
// fields before sharing the expander, after which it is safe for
// concurrent ExpandContext calls.
type Expander struct {
	rules []*Rule
	// norms maps each token constant of the rules to its normalised text.
	norms map[string]string
	// byPred holds the positions in rules, ascending, of the rules whose
	// first LHS predicate is a constant, by predText; anyPred those of the
	// rules whose first LHS predicate is a variable (or whose LHS is empty).
	byPred  map[string][]int
	anyPred []int

	// MaxDepth bounds the number of rule applications per derivation;
	// 0 disables relaxation entirely (only the original query is
	// returned), negative values select the default depth of 2.
	MaxDepth int
	// MaxRewrites bounds the total number of rewrites returned,
	// including the original query. Zero means no bound.
	MaxRewrites int
	// MinWeight prunes derivations below this weight.
	MinWeight float64
}

// NewExpander compiles rules into an expander with the default bounds
// used by the engine: depth 2, 64 rewrites, minimum weight 0.05.
func NewExpander(rules []*Rule) *Expander {
	e := &Expander{rules: rules, norms: make(map[string]string), byPred: make(map[string][]int), MaxDepth: 2, MaxRewrites: 64, MinWeight: 0.05}
	u := unifier{norms: e.norms}
	for i, r := range rules {
		for _, p := range slices.Concat(r.LHS, r.RHS) {
			for _, s := range [3]query.Slot{p.S, p.P, p.O} {
				if !s.IsVar() && s.Term.Kind == rdf.KindToken {
					u.norm(s.Term.Text)
				}
			}
		}
		if len(r.LHS) == 0 || r.LHS[0].P.IsVar() {
			e.anyPred = append(e.anyPred, i)
			continue
		}
		k := u.predText(r.LHS[0].P.Term)
		e.byPred[k] = append(e.byPred[k], i)
	}
	return e
}

// predText returns the index key of a constant predicate: its text,
// normalised for a token phrase, so termEqual terms share a key.
func (u *unifier) predText(t rdf.Term) string {
	if t.Kind == rdf.KindToken {
		return u.norm(t.Text)
	}
	return t.Text
}

// candidates returns the positions of the rules that may apply to q,
// ascending: those indexed under one of q's constant predicates and those
// whose first LHS predicate is a variable.
func (e *Expander) candidates(dst []int, q *query.Query, u *unifier) []int {
	dst = append(dst[:0], e.anyPred...)
	for _, p := range q.Patterns {
		if !p.P.IsVar() {
			dst = append(dst, e.byPred[u.predText(p.P.Term)]...)
		}
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// rwItem is a rewrite on the frontier. Its canonical key is rendered once,
// when the rewrite is built; its applied-rule list is only materialised if
// the rewrite is returned.
type rwItem struct {
	q      *query.Query
	key    string
	weight float64
	depth  int
	parent []*Rule
	rule   *Rule
}

func (it *rwItem) applied() []*Rule {
	if it.rule == nil {
		return it.parent
	}
	return append(slices.Clip(it.parent), it.rule)
}

// rwHeap is a binary max-heap of frontier rewrites, typed so that items
// are not boxed on push and pop. Its sift steps are container/heap's:
// items that rank equal (one query reached through different rules) must
// keep popping in the same order, or the returned derivations change.
type rwHeap []rwItem

func (h rwHeap) less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight > h[j].weight
	}
	// Deterministic tie-break: shallower derivations first, then by
	// canonical query text.
	if h[i].depth != h[j].depth {
		return h[i].depth < h[j].depth
	}
	return h[i].key < h[j].key
}

func (h *rwHeap) push(it rwItem) {
	*h = append(*h, it)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *rwHeap) pop() rwItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && s.less(j+1, j) {
			j++
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*h = s[:n]
	return it
}

// Expand returns the rewrite space of q in descending weight order. The
// first element is always the original query (weight 1, no rules). Each
// distinct query appears once, with its maximum-weight derivation — the
// paper's max-over-sequences semantics (§4) applied at the rewrite level.
func (e *Expander) Expand(q *query.Query) []Rewrite {
	out, _ := e.ExpandContext(context.Background(), q)
	return out
}

// ExpandContext is Expand with request scoping: the context is polled at
// every expansion step (one popped rewrite per step), and a cancelled
// expansion returns the rewrites enumerated so far — still in descending
// weight order, led by the original query unless the context was
// cancelled before the first step — together with ctx.Err(), so callers
// can surface a partial result.
func (e *Expander) ExpandContext(ctx context.Context, q *query.Query) ([]Rewrite, error) {
	maxDepth := e.MaxDepth
	if maxDepth < 0 {
		maxDepth = 2
	}
	done := ctx.Done()
	h := rwHeap{{q: q, key: canonicalKey(q), weight: 1}}
	seen := make(map[string]bool)
	var (
		u    = unifier{fixed: e.norms}
		out  []Rewrite
		cand []int
		apps []Application
	)
	for len(h) > 0 {
		if done != nil {
			select {
			case <-done:
				return out, ctx.Err()
			default:
			}
		}
		it := h.pop()
		if seen[it.key] {
			continue
		}
		seen[it.key] = true
		rw := Rewrite{Query: it.q, Applied: it.applied(), Weight: it.weight}
		out = append(out, rw)
		if e.MaxRewrites > 0 && len(out) >= e.MaxRewrites {
			break
		}
		if it.depth >= maxDepth {
			continue
		}
		cand = e.candidates(cand, rw.Query, &u)
		for _, ri := range cand {
			r := e.rules[ri]
			w := rw.Weight * r.Weight
			if w < e.MinWeight {
				continue
			}
			apps = u.apply(apps, rw.Query, it.key, r, seen)
			for _, app := range apps {
				h.push(rwItem{q: app.Query, key: app.key, weight: w, depth: it.depth + 1, parent: rw.Applied, rule: r})
			}
		}
	}
	return out, nil
}
