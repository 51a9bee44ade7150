// Package relax implements TriniT's query relaxation framework (§3).
//
// A relaxation rule replaces a set of triple patterns in a query with a set
// of new patterns and carries a weight w ∈ [0, 1] reflecting the semantic
// similarity of the two sides. Rules are applied by unification: rule
// variables bind to the query's slots (variables or constants), constants
// in the rule must match the query exactly. The package also provides the
// rewrite-space expander used by top-k processing and the rule miners that
// derive rules from the XKG itself, including the paper's weight formula
//
//	w(p1 → p2) = |args(p1) ∩ args(p2)| / |args(p2)|.
package relax

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/text"
)

// Rule is a weighted relaxation rule: LHS patterns are replaced by RHS
// patterns. Variables (?x, ?y, ...) in the rule unify with the query's
// slots; variables appearing only in the RHS become fresh query variables.
type Rule struct {
	// ID is a stable identifier used in explanations and suggestions.
	ID string
	// LHS is the set of patterns to be replaced.
	LHS []query.Pattern
	// RHS is the replacement set.
	RHS []query.Pattern
	// Weight is the rule's semantic-similarity weight in [0, 1].
	Weight float64
	// Origin records where the rule came from: "manual", "mined",
	// "inversion", "composition", or an operator name.
	Origin string
}

// String renders the rule like the rows of Figure 4.
func (r *Rule) String() string {
	return fmt.Sprintf("%s => %s [w=%.2f, %s]", patternsString(r.LHS), patternsString(r.RHS), r.Weight, r.Origin)
}

func patternsString(ps []query.Pattern) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	return strings.Join(parts, " ; ")
}

// Validate checks the rule is well-formed: non-empty sides, a weight in
// [0, 1], and no constant-only degenerate LHS duplicates.
func (r *Rule) Validate() error {
	if len(r.LHS) == 0 || len(r.RHS) == 0 {
		return fmt.Errorf("rule %s: empty LHS or RHS", r.ID)
	}
	if r.Weight < 0 || r.Weight > 1 {
		return fmt.Errorf("rule %s: weight %v outside [0,1]", r.ID, r.Weight)
	}
	return nil
}

// binding binds one rule variable to a query slot.
type binding struct {
	v  string
	qs query.Slot
}

// unifier applies rules to queries; it is the one unification routine
// behind both Apply and the Expander. Bindings live on a stack that
// backtracking truncates, each token text is normalised at most once, and
// rewrites and their canonical keys are built in reused scratch buffers
// until one is kept. A unifier serves one goroutine.
type unifier struct {
	// fixed holds the normalised text of the rule set's token constants,
	// computed when the rule set was compiled and shared read-only; norms
	// holds the unifier's own normalisations of other (query) texts.
	fixed, norms map[string]string
	s            []binding
	keys         keyBuf
	ps           []query.Pattern

	// The application under way: query, its canonical key, rule, keys to
	// skip, rewrites emitted so far, and the injective pattern match.
	q     *query.Query
	qkey  string
	r     *Rule
	skip  map[string]bool
	out   []Application
	match []int
}

func (u *unifier) norm(s string) string {
	if n, ok := u.fixed[s]; ok {
		return n
	}
	n, ok := u.norms[s]
	if !ok {
		if u.norms == nil {
			u.norms = make(map[string]string)
		}
		n = text.Normalize(s)
		u.norms[s] = n
	}
	return n
}

// termEqual compares terms; token phrases compare by normalised text so
// that 'won nobel for' in a rule matches 'won a Nobel for' in a query.
func (u *unifier) termEqual(a, b rdf.Term) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Text == b.Text {
		return true
	}
	return a.Kind == rdf.KindToken && u.norm(a.Text) == u.norm(b.Text)
}

func (u *unifier) lookup(v string) (query.Slot, bool) {
	for _, b := range u.s {
		if b.v == v {
			return b.qs, true
		}
	}
	return query.Slot{}, false
}

// unifySlot unifies one rule slot with one query slot, pushing a binding
// for an unbound rule variable.
func (u *unifier) unifySlot(rs, qs *query.Slot) bool {
	if !rs.IsVar() {
		// Constant rule slot: the query slot must be an equal constant.
		return !qs.IsVar() && u.termEqual(rs.Term, qs.Term)
	}
	bound, ok := u.lookup(rs.Var)
	if !ok {
		u.s = append(u.s, binding{rs.Var, *qs})
		return true
	}
	if bound.IsVar() || qs.IsVar() {
		return bound.Var == qs.Var
	}
	return u.termEqual(bound.Term, qs.Term)
}

// unifyPattern unifies a rule pattern with a query pattern, leaving the
// bindings untouched when they do not unify.
func (u *unifier) unifyPattern(rp, qp *query.Pattern) bool {
	mark := len(u.s)
	if u.unifySlot(&rp.S, &qp.S) && u.unifySlot(&rp.P, &qp.P) && u.unifySlot(&rp.O, &qp.O) {
		return true
	}
	u.s = u.s[:mark]
	return false
}

// Application is one way a rule matched a query: the substitution plus the
// matched query pattern indices, and the rewritten query.
type Application struct {
	Rule    *Rule
	Query   *query.Query
	Matched []int  // indices into the original query's Patterns
	key     string // canonicalKey(Query), rendered when Query was built
}

// Apply returns every distinct single-step rewriting of q by r. A rewriting
// replaces an injectively matched set of query patterns (one per LHS
// pattern) with the instantiated RHS. Rewritings that would lose a
// projected variable, or that equal q, are discarded. Apply renders q's
// canonical key once per call and each rewriting's once; the Expander
// runs the same unifier over its compiled rule set.
func Apply(q *query.Query, r *Rule) []Application {
	var u unifier
	return u.apply(nil, q, canonicalKey(q), r, nil)
}

// apply returns r's applications to q (whose canonical key is qkey) in
// dst's storage, leaving out rewrites whose key is in skip.
func (u *unifier) apply(dst []Application, q *query.Query, qkey string, r *Rule, skip map[string]bool) []Application {
	if len(r.LHS) > len(q.Patterns) {
		return dst[:0]
	}
	u.q, u.qkey, u.r, u.skip, u.out = q, qkey, r, skip, dst[:0]
	u.s, u.match = u.s[:0], u.match[:0]
	u.matchFrom(0)
	return u.out
}

// matchFrom extends the match with LHS patterns li onward, emitting a
// rewrite per complete match.
func (u *unifier) matchFrom(li int) {
	if li == len(u.r.LHS) {
		u.emit()
		return
	}
	mark := len(u.s)
	for qi := range u.q.Patterns {
		if slices.Contains(u.match, qi) || !u.unifyPattern(&u.r.LHS[li], &u.q.Patterns[qi]) {
			continue
		}
		u.match = append(u.match, qi)
		u.matchFrom(li + 1)
		u.match = u.match[:len(u.match)-1]
		u.s = u.s[:mark]
	}
}

// emit builds the rewrite of one complete match: the unmatched query
// patterns followed by the instantiated RHS. It is kept unless it equals
// the query, repeats an earlier rewrite, or drops a projected variable.
func (u *unifier) emit() {
	q := u.q
	ps := u.ps[:0]
	for i, p := range q.Patterns {
		if !slices.Contains(u.match, i) {
			ps = append(ps, p)
		}
	}
	mark := len(u.s)
	for _, p := range u.r.RHS {
		ps = append(ps, query.Pattern{S: u.resolve(p.S), P: u.resolve(p.P), O: u.resolve(p.O)})
	}
	u.s, u.ps = u.s[:mark], ps
	key := u.keys.render(ps)
	if string(key) == u.qkey || u.skip[string(key)] {
		return
	}
	for _, a := range u.out {
		if a.key == string(key) {
			return
		}
	}
	nq := &query.Query{Projection: q.Projection, Patterns: ps, Filters: q.Filters, Limit: q.Limit}
	if nq.Validate() != nil {
		return
	}
	nq.Projection = append([]string(nil), q.Projection...)
	nq.Filters = append([]query.Filter(nil), q.Filters...)
	nq.Patterns = slices.Clone(ps)
	matched := slices.Clone(u.match)
	slices.Sort(matched)
	u.out = append(u.out, Application{Rule: u.r, Query: nq, Matched: matched, key: string(key)})
}

// resolve instantiates one RHS slot. An RHS-only rule variable gets the
// first fresh query variable r0, r1, ... not yet in use, stable within the
// application.
func (u *unifier) resolve(sl query.Slot) query.Slot {
	if !sl.IsVar() {
		return sl
	}
	if bound, ok := u.lookup(sl.Var); ok {
		return bound
	}
	for i := 0; ; i++ {
		v := "r" + strconv.Itoa(i)
		// Taken: a query variable, or given to another RHS-only variable.
		taken := slices.ContainsFunc(u.q.Patterns, func(p query.Pattern) bool {
			return p.S.Var == v || p.P.Var == v || p.O.Var == v
		}) || slices.ContainsFunc(u.s, func(b binding) bool { return b.qs.Var == v })
		if !taken {
			u.s = append(u.s, binding{sl.Var, query.Variable(v)})
			return query.Variable(v)
		}
	}
}

// keyBuf renders canonical keys into reused buffers.
type keyBuf struct {
	parts, key []byte
	spans      [][2]int
}

// render returns the canonical key of a pattern set: its patterns in
// query syntax, sorted and joined by " | ". The bytes stay valid until
// the next render.
func (k *keyBuf) render(ps []query.Pattern) []byte {
	k.parts, k.spans = k.parts[:0], k.spans[:0]
	for _, p := range ps {
		start := len(k.parts)
		k.parts = p.AppendTo(k.parts)
		k.spans = append(k.spans, [2]int{start, len(k.parts)})
	}
	parts := k.parts
	slices.SortFunc(k.spans, func(a, b [2]int) int {
		return bytes.Compare(parts[a[0]:a[1]], parts[b[0]:b[1]])
	})
	k.key = k.key[:0]
	for i, sp := range k.spans {
		if i > 0 {
			k.key = append(k.key, " | "...)
		}
		k.key = append(k.key, parts[sp[0]:sp[1]]...)
	}
	return k.key
}

// canonicalKey is an order-insensitive rendering of a query's patterns
// that identifies a rewrite: the expander's dedupe key and final
// tie-break. The unifier renders it once per candidate rewrite, which
// carries it from then on; this helper is for the input query.
func canonicalKey(q *query.Query) string {
	var k keyBuf
	return string(k.render(q.Patterns))
}
