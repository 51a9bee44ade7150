// Package query defines TriniT's extended triple-pattern query language and
// its parser.
//
// A query is a conjunction of triple patterns (§1). Each S, P, O slot holds
// either a variable (?x), a canonical KG resource (AlbertEinstein), or a
// quoted textual token ('won nobel for') — the extension of §2 that lets
// queries mix traditional-SPARQL patterns with text-style token patterns.
//
// The concrete syntax is a SPARQL-like subset:
//
//	SELECT ?x WHERE { AlbertEinstein affiliation ?x . ?x member IvyLeague } LIMIT 5
//
// with two conveniences: the SELECT/WHERE wrapper may be omitted (all
// variables are then projected), and patterns may be separated by '.' or
// ';' as in the paper's Figure 2.
package query

import (
	"fmt"
	"strconv"
	"strings"

	"trinit/internal/rdf"
)

// Slot is one position of a triple pattern: a variable or a bound term.
type Slot struct {
	// Var is the variable name (without the leading '?') when the slot
	// is a variable; empty otherwise.
	Var string
	// Term is the bound term when the slot is not a variable. Token
	// terms are matched approximately, resources and literals exactly.
	Term rdf.Term
}

// IsVar reports whether the slot is a variable.
func (s Slot) IsVar() bool { return s.Var != "" }

// Variable constructs a variable slot.
func Variable(name string) Slot { return Slot{Var: name} }

// Bound constructs a bound slot.
func Bound(t rdf.Term) Slot { return Slot{Term: t} }

// String renders the slot in query syntax.
func (s Slot) String() string {
	if s.IsVar() {
		return "?" + s.Var
	}
	return s.Term.String()
}

// AppendTo appends the slot's String rendering to dst.
func (s Slot) AppendTo(dst []byte) []byte {
	if s.IsVar() {
		return append(append(dst, '?'), s.Var...)
	}
	return s.Term.AppendTo(dst)
}

// Pattern is a single extended triple pattern.
type Pattern struct {
	S, P, O Slot
}

// String renders the pattern in query syntax.
func (p Pattern) String() string { return string(p.AppendTo(nil)) }

// AppendTo appends the pattern's String rendering to dst, for callers
// that render many patterns into one reused buffer.
func (p Pattern) AppendTo(dst []byte) []byte {
	dst = append(p.S.AppendTo(dst), ' ')
	dst = append(p.P.AppendTo(dst), ' ')
	return p.O.AppendTo(dst)
}

// Vars returns the distinct variable names of the pattern in S, P, O order.
func (p Pattern) Vars() []string {
	return p.AppendVars(nil)
}

// AppendVars appends the pattern's variable names to dst in S, P, O order,
// skipping names already present in dst, and returns the extended slice.
// It is Vars without the per-call allocations, for callers that resolve
// variables into reused scratch buffers on a hot path (a pattern has at
// most three variables, so the linear dedup scan beats a map).
func (p Pattern) AppendVars(dst []string) []string {
	for _, s := range [3]Slot{p.S, p.P, p.O} {
		if !s.IsVar() {
			continue
		}
		dup := false
		for _, v := range dst {
			if v == s.Var {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, s.Var)
		}
	}
	return dst
}

// Filter is a comparison constraint on variable bindings, e.g.
// FILTER(?d < '1900-01-01') or FILTER(?x != ?y). Comparisons are numeric
// when both operands parse as numbers, lexicographic otherwise (which
// orders ISO dates correctly).
type Filter struct {
	// Var is the left-hand variable (without '?').
	Var string
	// Op is one of <, <=, >, >=, =, !=.
	Op string
	// RHSVar compares against another variable's binding when non-empty.
	RHSVar string
	// Value compares against a constant term when RHSVar is empty.
	Value rdf.Term
}

// String renders the filter in query syntax.
func (f Filter) String() string {
	rhs := f.Value.String()
	if f.RHSVar != "" {
		rhs = "?" + f.RHSVar
	}
	return fmt.Sprintf("FILTER(?%s %s %s)", f.Var, f.Op, rhs)
}

// Query is a parsed extended triple-pattern query.
type Query struct {
	// Projection lists the variables whose bindings form an answer, in
	// declaration order. If empty, all variables are projected.
	Projection []string
	// Patterns is the conjunctive set of triple patterns.
	Patterns []Pattern
	// Filters constrain variable bindings after pattern matching.
	Filters []Filter
	// Limit is the requested number of top-ranked answers (the k of
	// top-k processing); 0 means the engine default.
	Limit int
}

// Vars returns the distinct variables of all patterns, in first-occurrence
// order.
func (q *Query) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	for _, p := range q.Patterns {
		for _, v := range p.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// ProjectedVars returns Projection, or all variables when the projection is
// empty.
func (q *Query) ProjectedVars() []string {
	if len(q.Projection) > 0 {
		return q.Projection
	}
	return q.Vars()
}

// String renders the query in canonical syntax. Queries with at least one
// variable use the SELECT/WHERE form; fully bound (boolean) queries render
// in the bare pattern shorthand, which is the only form that parses
// without variables.
func (q *Query) String() string {
	var b strings.Builder
	proj := q.ProjectedVars()
	if len(proj) > 0 {
		b.WriteString("SELECT")
		for _, v := range proj {
			b.WriteString(" ?" + v)
		}
		b.WriteString(" WHERE { ")
	}
	for i, p := range q.Patterns {
		if i > 0 {
			b.WriteString(" . ")
		}
		b.WriteString(p.String())
	}
	for _, f := range q.Filters {
		b.WriteString(" . ")
		b.WriteString(f.String())
	}
	if len(proj) > 0 {
		b.WriteString(" }")
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}

// Validate checks structural well-formedness: at least one pattern, every
// projected and filtered variable bound somewhere, and no negative limit.
func (q *Query) Validate() error {
	if len(q.Patterns) == 0 {
		return fmt.Errorf("query has no triple patterns")
	}
	if q.Limit < 0 {
		return fmt.Errorf("negative LIMIT %d", q.Limit)
	}
	// A linear scan per variable beats building a set: queries are a few
	// patterns, and rewrite expansion validates every candidate rewrite.
	bound := func(v string) bool {
		for _, p := range q.Patterns {
			if v != "" && (p.S.Var == v || p.P.Var == v || p.O.Var == v) {
				return true
			}
		}
		return false
	}
	for _, v := range q.Projection {
		if !bound(v) {
			return fmt.Errorf("projected variable ?%s does not occur in any pattern", v)
		}
	}
	for _, f := range q.Filters {
		switch f.Op {
		case "<", "<=", ">", ">=", "=", "!=":
		default:
			return fmt.Errorf("unknown filter operator %q", f.Op)
		}
		if !bound(f.Var) {
			return fmt.Errorf("filtered variable ?%s does not occur in any pattern", f.Var)
		}
		if f.RHSVar != "" && !bound(f.RHSVar) {
			return fmt.Errorf("filtered variable ?%s does not occur in any pattern", f.RHSVar)
		}
	}
	return nil
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	out := &Query{
		Projection: append([]string(nil), q.Projection...),
		Patterns:   append([]Pattern(nil), q.Patterns...),
		Filters:    append([]Filter(nil), q.Filters...),
		Limit:      q.Limit,
	}
	return out
}

// EvalFilter evaluates one filter against resolved binding texts. lhs and
// rhs are the surface texts of the bound terms. Comparison is numeric when
// both sides parse as numbers, lexicographic otherwise.
func EvalFilter(op, lhs, rhs string) bool {
	ln, lerr := strconv.ParseFloat(lhs, 64)
	rn, rerr := strconv.ParseFloat(rhs, 64)
	if lerr == nil && rerr == nil {
		switch op {
		case "<":
			return ln < rn
		case "<=":
			return ln <= rn
		case ">":
			return ln > rn
		case ">=":
			return ln >= rn
		case "=":
			return ln == rn
		default:
			return ln != rn
		}
	}
	switch op {
	case "<":
		return lhs < rhs
	case "<=":
		return lhs <= rhs
	case ">":
		return lhs > rhs
	case ">=":
		return lhs >= rhs
	case "=":
		return lhs == rhs
	default:
		return lhs != rhs
	}
}
