package topk

// Plan-time variable-slot resolution. The join kernels used to carry
// bindings in a map[string]rdf.TermID keyed by variable name, paying a
// hash + string compare on every probe, extension and rollback. A
// varPlan resolves the variable names of one rewrite's pattern set to
// dense slot indexes once, at plan time; the kernels then bind variables
// in flat []rdf.TermID arrays indexed by slot (rdf.NoTerm = unbound —
// dictionaries never assign it). The plan is a pure function of the
// pattern set's variable shape, so runs memoise it by signature and the
// shared-variable adjacency that joinOrder used to re-derive per rewrite
// is computed once here and reused (slot identity makes "do these
// patterns share a variable" an integer comparison).

import "trinit/internal/query"

// varPlan is the slot resolution of one pattern set.
type varPlan struct {
	// names maps slot index to variable name; len(names) is the number
	// of distinct variables, i.e. the width of a binding array.
	names []string
	// pats[pi][j] is the slot of the j-th variable of pattern pi in the
	// pattern's uniform binding layout — distinct variables in S, P, O
	// order, the order of score.Match.Bindings and patternList.vars —
	// so pats[pi] aligns index-for-index with a match's Bindings.
	pats [][]int32
}

// buildVarPlan resolves the variables of a pattern set to slots.
func buildVarPlan(pats []query.Pattern) *varPlan {
	vp := &varPlan{pats: make([][]int32, len(pats))}
	var scratch []string
	for pi, p := range pats {
		scratch = p.AppendVars(scratch[:0])
		row := make([]int32, len(scratch))
		for j, v := range scratch {
			row[j] = vp.slotID(v)
		}
		vp.pats[pi] = row
	}
	return vp
}

// slotID returns v's slot, interning it on first use. Pattern sets have
// a handful of variables, so a linear scan beats a map.
func (vp *varPlan) slotID(v string) int32 {
	for s, name := range vp.names {
		if name == v {
			return int32(s)
		}
	}
	vp.names = append(vp.names, v)
	return int32(len(vp.names) - 1)
}

// slotOf returns v's slot, or -1 when no pattern binds v.
func (vp *varPlan) slotOf(v string) int32 {
	for s, name := range vp.names {
		if name == v {
			return int32(s)
		}
	}
	return -1
}

// joinOrder refines a selectivity-sorted pattern order into the order the
// join enumerates: starting from the first pattern of lenOrder (the
// shortest list), it repeatedly appends the earliest pattern in lenOrder
// that shares a variable with the prefix, falling back to the earliest
// remaining pattern when none connects (a genuinely disconnected pattern
// graph). A connected prefix lets the hash join probe an existing binding
// at every depth instead of enumerating a Cartesian product. The
// allocating form, for tests; the kernels go through joinOrderInto with
// run-owned scratch.
func (vp *varPlan) joinOrder(lenOrder []int) []int {
	n := len(lenOrder)
	if n <= 2 {
		return lenOrder
	}
	return vp.joinOrderInto(lenOrder, make([]int, 0, n), make([]bool, n), make([]bool, len(vp.names)))
}

// joinOrderInto is joinOrder writing into caller scratch: out must have
// capacity len(lenOrder) (it is truncated here), used must be len(lenOrder)
// false, bound len(vp.names) false.
func (vp *varPlan) joinOrderInto(lenOrder, out []int, used, bound []bool) []int {
	n := len(lenOrder)
	out = out[:0]
	take := func(pi int) {
		out = append(out, pi)
		used[pi] = true
		for _, s := range vp.pats[pi] {
			bound[s] = true
		}
	}
	take(lenOrder[0])
	for len(out) < n {
		pick := -1
		for _, pi := range lenOrder {
			if used[pi] {
				continue
			}
			if pick < 0 {
				pick = pi // fallback: earliest remaining
			}
			connected := false
			for _, s := range vp.pats[pi] {
				if bound[s] {
					connected = true
					break
				}
			}
			if connected {
				pick = pi
				break
			}
		}
		take(pick)
	}
	return out
}

// varPlanFor returns the slot resolution of this pattern set, memoised
// per run by the patterns' variable signature (rewrites of one query
// share a handful of shapes, and relaxation rules rarely touch variable
// structure).
func (r *run) varPlanFor(pats []query.Pattern) *varPlan {
	sc := &r.sc
	buf := sc.sigBuf[:0]
	for _, p := range pats {
		// 0x01/0x02 separate slots and patterns; variable names are
		// parser identifiers and can contain neither.
		buf = append(buf, p.S.Var...)
		buf = append(buf, 1)
		buf = append(buf, p.P.Var...)
		buf = append(buf, 1)
		buf = append(buf, p.O.Var...)
		buf = append(buf, 2)
	}
	sc.sigBuf = buf
	if vp, ok := sc.plans[string(buf)]; ok {
		return vp
	}
	vp := buildVarPlan(pats)
	// The scratch now outlives single queries (executors keep and pool
	// it), so the memo is reset wholesale at a generous cap instead of
	// growing with every distinct shape ever evaluated.
	if sc.plans == nil || len(sc.plans) >= memoCap {
		sc.plans = make(map[string]*varPlan)
	}
	sc.plans[string(buf)] = vp
	return vp
}

// memoCap bounds the run-scratch memo maps (slot plans, pattern keys).
const memoCap = 4096

// patKey returns the canonical cache key of a pattern (its query-syntax
// rendering), memoised per run: the fmt-based String dominated warm-cache
// profiles when re-rendered for every rewrite sharing a pattern.
func (r *run) patKey(p query.Pattern) string {
	if s, ok := r.sc.patStr[p]; ok {
		return s
	}
	if r.sc.patStr == nil || len(r.sc.patStr) >= memoCap {
		r.sc.patStr = make(map[query.Pattern]string)
	}
	s := p.String()
	r.sc.patStr[p] = s
	return s
}
