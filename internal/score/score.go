// Package score implements TriniT's answer-scoring model (§4): a
// query-likelihood approach in which each triple pattern is viewed as a
// document that emits triples with certain probabilities.
//
// For a pattern p and a matching triple t,
//
//	P(t | p) = conf(t) · match(t, p)  /  Σ_{t' ⊨ p} conf(t') · match(t', p)
//
// where conf is the triple's confidence (1 for curated KG facts — the
// tf-like effect rewards reliable, frequently-extracted facts since
// duplicate extractions keep the maximum confidence) and match is the
// token-similarity of textual slots (1 for exact resource matches). The
// denominator is the pattern's total match mass: selective patterns emit
// each of their matches with higher probability — the idf-like effect.
//
// Relaxation-weight attenuation and the max-over-derivations semantics are
// applied by the top-k processor on top of these per-pattern probabilities.
//
// Match lists are built token-resolved: each textual token slot is first
// resolved to its candidate terms through the store's inverted token index
// (store.MatchToken), and only the permutation-index ranges of the
// candidate combinations are scanned — instead of materialising the
// wildcard range and similarity-testing every triple. Candidate
// similarities use the same text.Similarity at the same MinTokenSim, so
// the resulting match lists are byte-identical to the scan path's; the
// scan path remains as the fallback for unbounded candidate cross-products
// (MatchPatternScan exposes it alone, as the reference for the resolved
// path).
package score

import (
	"sort"

	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/store"
	"trinit/internal/text"
)

// Binding assigns a term to a query variable.
type Binding struct {
	Var  string
	Term rdf.TermID
}

// Match is one triple matching a pattern, with its emission probability.
type Match struct {
	Triple store.ID
	// Raw is conf(t) · match(t, p), before normalisation.
	Raw float64
	// Prob is the normalised emission probability P(t | p).
	Prob float64
	// Bindings are the variable assignments this match induces. Every
	// match in one MatchPattern result binds the same variables in the
	// same order — slot order S, P, O with repeated variables
	// deduplicated — so callers building per-variable indexes over a
	// match list may resolve a variable's position once, on any entry,
	// and read that position on every other entry.
	Bindings []Binding
}

// BoundedExtend is the column kernel of block-at-a-time join execution:
// it extends one running-probability value acc across the candidate
// entries of a score-sorted match list, appending the products acc·Prob
// to dst as a column. cand selects list positions (nil means every entry
// of ms, in order). The inner loop is a multiply plus one monotone cut:
// heads holds the head (best) probability of every remaining join depth,
// in join order, and the branch's score bound is
//
//	weight·(((acc·Prob)·heads[0])·…·heads[len-1])
//
// — the same left-to-right fold the realised score weight·(acc·p…) takes,
// with every later factor replaced by its upper bound. IEEE multiplication
// of non-negative values is monotone in each argument, so this bound is
// >= the score of every completion bit for bit (a differently associated
// bound can land one ulp below a score it guards). Candidates arrive in
// descending Prob order, hence the first bound strictly below limit cuts
// the whole remaining column; a bound equal to limit survives, so a
// branch that can tie the k-th score is enumerated. It returns the
// extended column and the number of candidates consumed; limit 0 never
// cuts (bounds are non-negative), which is the exhaustive mode.
func BoundedExtend(ms []Match, cand []int32, acc, weight float64, heads []float64, limit float64, dst []float64) ([]float64, int) {
	n := len(ms)
	if cand != nil {
		n = len(cand)
	}
	for j := 0; j < n; j++ {
		p := j
		if cand != nil {
			p = int(cand[j])
		}
		ext := acc * ms[p].Prob
		if bound(weight, ext, heads) < limit {
			return dst, j
		}
		dst = append(dst, ext)
	}
	return dst, n
}

// bound folds the remaining depths' head probabilities into a branch's
// extended running probability ext, left to right, and weights the
// result: the score bound of BoundedExtend.
func bound(weight, ext float64, heads []float64) float64 {
	for _, h := range heads {
		ext *= h
	}
	return weight * ext
}

// BindingOf returns the term this match binds to variable v, or false when
// the match does not bind v.
func (m Match) BindingOf(v string) (rdf.TermID, bool) {
	for _, b := range m.Bindings {
		if b.Var == v {
			return b.Term, true
		}
	}
	return rdf.NoTerm, false
}

// MatchStats reports the work one MatchPatternCounted call performed.
type MatchStats struct {
	// IndexScanned counts posting-list entries touched while building the
	// match list: every entry of the wildcard range on the scan path, or
	// only the entries of the candidate-combination ranges on the
	// token-resolved path. Inverted-index postings read during token
	// resolution are not counted here; TokenResolutions meters those.
	IndexScanned int
	// TokenResolutions counts token slots resolved through the inverted
	// token index.
	TokenResolutions int
	// ScanFallback reports that a pattern with token slots was matched by
	// the wildcard scan — because MinTokenSim <= 0, the candidate
	// cross-product exceeded maxTokenCombos, or the candidate ranges were
	// no smaller than the wildcard range.
	ScanFallback bool
}

// Matcher evaluates single patterns against a frozen store. Once its
// configuration fields are set it is safe for concurrent use: matching
// only reads the frozen store and mutates no matcher state.
type Matcher struct {
	St *store.Store
	// MinTokenSim is the minimum similarity for a textual token slot to
	// match a term (default 0.34: roughly one shared content word out
	// of three).
	MinTokenSim float64
	// UniformConf treats every triple as confidence 1, ablating the
	// tf-like effect of the scoring model (experiment E8).
	UniformConf bool
	// NoNormalize skips the per-pattern normalisation, ablating the
	// idf-like selectivity effect (experiment E8).
	NoNormalize bool
	// Resolver, when set, replaces direct store.MatchToken calls for
	// token-slot resolution. Implementations must return exactly
	// store.MatchToken(tok, store.MaskAny, minSim, 0) — the hook exists
	// so an engine can share one cached resolution between the planner's
	// selectivity estimate and the matcher. The returned slice is treated
	// as read-only and may be shared across goroutines.
	Resolver func(tok string, minSim float64) []store.ScoredTerm
	// Mass, when set, overrides the normalisation denominator of each
	// pattern's match list: it receives the pattern and the locally
	// accumulated mass and returns the mass to divide by. A sharded
	// engine installs a hook returning the pattern's mass over the
	// whole corpus, so per-shard lists normalise with global statistics
	// and every shard's emission probabilities are bit-identical to the
	// unsharded matcher's — the distributed-IDF exchange of search
	// engines, applied to the scoring model's idf-like effect. Ignored
	// under NoNormalize. Implementations must be safe for concurrent
	// use and deterministic.
	Mass func(p query.Pattern, local float64) float64
}

// NewMatcher returns a matcher with default thresholds.
func NewMatcher(st *store.Store) *Matcher {
	return &Matcher{St: st, MinTokenSim: 0.34}
}

// compiledPattern is a pattern with its bound slots resolved against the
// dictionary and its token slots tokenized once, so per-candidate work
// never re-tokenizes the query side.
type compiledPattern struct {
	slots [3]query.Slot
	// ids holds the term ID of each exactly-bound slot; NoTerm acts as a
	// wildcard for the index scan (variables and token slots).
	ids [3]rdf.TermID
	// tokText and tokSets hold the surface text and precomputed content
	// token set of each textual token slot (tokSets[i] == nil for
	// non-token slots; a token slot with empty text stays a wildcard,
	// matching the scan path's behaviour).
	tokText  [3]string
	tokSets  [3]text.TokenSet
	hasToken bool
}

// compile resolves the pattern's bound slots. ok is false when a bound
// resource or literal is not in the dictionary, in which case the pattern
// can never match.
func (m *Matcher) compile(p query.Pattern) (cp compiledPattern, ok bool) {
	cp.slots = [3]query.Slot{p.S, p.P, p.O}
	for i, sl := range cp.slots {
		switch {
		case sl.IsVar():
			// wildcard
		case sl.Term.Kind == rdf.KindToken:
			if sl.Term.Text == "" {
				continue // wildcard, as on the scan path
			}
			cp.tokText[i] = sl.Term.Text
			cp.tokSets[i] = text.NewTokenSet(sl.Term.Text)
			cp.hasToken = true
		default:
			id, found := m.St.Dict().Lookup(sl.Term)
			if !found {
				return cp, false
			}
			cp.ids[i] = id
		}
	}
	return cp, true
}

// MatchPattern returns all matches of the pattern, sorted by descending
// probability (ties by triple ID). Use MatchPatternCounted when the
// list-building cost matters (the E5 experiment reports it).
func (m *Matcher) MatchPattern(p query.Pattern) []Match {
	out, _ := m.MatchPatternCounted(p)
	return out
}

// MatchPatternCounted returns the matches together with statistics on the
// list-building work, leaving per-call accounting to the caller. It
// mutates no matcher state, so concurrent calls need no coordination.
// Token slots match approximately; the match factor of a triple is the
// product of its token-slot similarities.
func (m *Matcher) MatchPatternCounted(p query.Pattern) ([]Match, MatchStats) {
	var stats MatchStats
	cp, ok := m.compile(p)
	if !ok {
		return nil, stats
	}
	if ranges, empty, resolved := m.resolveCombos(&cp, &stats); resolved {
		if empty {
			return nil, stats
		}
		var out []Match
		for _, r := range ranges {
			for _, id := range r.ids {
				stats.IndexScanned++
				m.appendMatch(&out, &cp, id, r.factor)
			}
		}
		return m.finish(p, out), stats
	}
	return m.scan(p, &cp, stats)
}

// MatchPatternScan builds the pattern's list by the wildcard scan alone,
// never consulting the token index. Its lists are byte-identical to
// MatchPatternCounted's, which makes it the reference that token
// resolution is tested against.
func (m *Matcher) MatchPatternScan(p query.Pattern) ([]Match, MatchStats) {
	cp, ok := m.compile(p)
	if !ok {
		return nil, MatchStats{}
	}
	return m.scan(p, &cp, MatchStats{})
}

// scan finishes a list built by gatherScan, flagging token patterns as
// scan fallbacks.
func (m *Matcher) scan(p query.Pattern, cp *compiledPattern, stats MatchStats) ([]Match, MatchStats) {
	stats.ScanFallback = cp.hasToken
	return m.finish(p, m.gatherScan(cp, &stats)), stats
}

// appendMatch scores one candidate triple and appends it unless a repeated
// variable binds inconsistently.
func (m *Matcher) appendMatch(out *[]Match, cp *compiledPattern, id store.ID, factor float64) {
	tr := m.St.Triple(id)
	bindings, ok := bind(cp.slots, [3]rdf.TermID{tr.S, tr.P, tr.O})
	if !ok {
		return
	}
	conf := tr.Conf
	if m.UniformConf {
		conf = 1
	}
	*out = append(*out, Match{Triple: id, Raw: conf * factor, Bindings: bindings})
}

// gatherScan is the wildcard-scan list-building path: materialise the
// wildcard index range and similarity-test every candidate triple. It
// remains the fallback for patterns token resolution cannot bound.
func (m *Matcher) gatherScan(cp *compiledPattern, stats *MatchStats) []Match {
	cands := m.St.Match(cp.ids[0], cp.ids[1], cp.ids[2])
	out := make([]Match, 0, len(cands))
	for _, id := range cands {
		stats.IndexScanned++
		tr := m.St.Triple(id)
		factor, ok := m.tokenFactor(cp, [3]rdf.TermID{tr.S, tr.P, tr.O})
		if !ok {
			continue
		}
		m.appendMatch(&out, cp, id, factor)
	}
	return out
}

// tokenFactor computes the product of the pattern's token-slot
// similarities against the triple's terms, in slot order, reporting
// ok=false when any slot falls below MinTokenSim. It is the single copy
// of the scan path's similarity filter, shared by list building and
// Selectivity so the two can never diverge.
func (m *Matcher) tokenFactor(cp *compiledPattern, parts [3]rdf.TermID) (factor float64, ok bool) {
	factor = 1.0
	for i := range cp.slots {
		if cp.tokSets[i] == nil {
			continue
		}
		sim := text.SimilaritySets(cp.tokSets[i], m.St.TermTokenSet(parts[i]))
		if sim < m.MinTokenSim {
			return 0, false
		}
		factor *= sim
	}
	return factor, true
}

// maxTokenCombos bounds the cross-product of candidate terms across the
// token slots of one pattern. Beyond it, enumerating per-combination index
// ranges risks costing more than one wildcard scan, so the matcher falls
// back to the scan path — worst cases never regress.
const maxTokenCombos = 512

// comboRange is the permutation-index range of one candidate combination,
// with the combination's token match factor (the product of the chosen
// candidates' similarities, multiplied in slot order exactly as the scan
// path does).
type comboRange struct {
	ids    []store.ID
	factor float64
}

// resolveCombos resolves each token slot to candidate terms via the
// inverted token index and enumerates the candidate combinations as
// zero-copy permutation-index ranges. Each combination binds every token
// slot to a distinct term, so the ranges are disjoint and no triple is
// visited twice.
//
// resolved is false when the pattern must use the scan path: it has no
// token slots, MinTokenSim <= 0 (zero-similarity matches exist that the
// index cannot enumerate),
// the cross-product exceeds maxTokenCombos, or the combined ranges are no
// smaller than the wildcard range one scan would touch. empty reports a
// pattern proven matchless during resolution (a token slot with no
// candidate at MinTokenSim — MatchToken is complete for positive
// similarities, so nothing can match).
func (m *Matcher) resolveCombos(cp *compiledPattern, stats *MatchStats) (ranges []comboRange, empty, resolved bool) {
	if !cp.hasToken || m.MinTokenSim <= 0 {
		return nil, false, false
	}
	// Resolve every token slot before enforcing the combo cap: a slot
	// with no candidate proves the pattern matchless, and that
	// short-circuit must win over the cap (resolutions are cheap and
	// cached; the fallback scan they avert is not).
	var cands [3][]store.ScoredTerm
	combos := 1
	for i := range cp.slots {
		if cp.tokSets[i] == nil {
			continue
		}
		c := m.resolveToken(cp.tokText[i])
		stats.TokenResolutions++
		if len(c) == 0 {
			return nil, true, true
		}
		cands[i] = c
		combos *= len(c)
	}
	if combos > maxTokenCombos {
		return nil, false, false
	}

	ranges = make([]comboRange, 0, combos)
	total := 0
	var walk func(slot int, probe [3]rdf.TermID, factor float64)
	walk = func(slot int, probe [3]rdf.TermID, factor float64) {
		if slot == 3 {
			ids := m.St.Match(probe[0], probe[1], probe[2])
			if len(ids) > 0 {
				ranges = append(ranges, comboRange{ids: ids, factor: factor})
				total += len(ids)
			}
			return
		}
		if cands[slot] == nil {
			walk(slot+1, probe, factor)
			return
		}
		for _, c := range cands[slot] {
			probe[slot] = c.Term
			walk(slot+1, probe, factor*c.Sim)
		}
	}
	walk(0, cp.ids, 1)

	if total >= m.St.Count(cp.ids[0], cp.ids[1], cp.ids[2]) {
		// The candidate ranges cover at least the wildcard range the
		// scan path would touch (the extreme case: every token slot's
		// candidates span the whole store) — scanning is cheaper, since
		// the ranges above were only binary searches but materialising
		// them would now do strictly more work than one scan.
		return nil, false, false
	}
	return ranges, false, true
}

// resolveToken resolves one token slot to its candidate terms.
func (m *Matcher) resolveToken(tok string) []store.ScoredTerm {
	if m.Resolver != nil {
		return m.Resolver(tok, m.MinTokenSim)
	}
	return m.St.MatchToken(tok, store.MaskAny, m.MinTokenSim, 0)
}

// finish normalises and sorts a gathered match list. The match mass is
// accumulated in ascending triple-ID order — a canonical order shared by
// the token-resolved and scan paths, so both sum the same floats in the
// same sequence and produce bit-identical probabilities.
func (m *Matcher) finish(p query.Pattern, out []Match) []Match {
	if len(out) == 0 {
		return out
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Triple < out[j].Triple })
	var mass float64
	for i := range out {
		mass += out[i].Raw
	}
	if m.NoNormalize {
		for i := range out {
			out[i].Prob = out[i].Raw
		}
	} else {
		if m.Mass != nil {
			mass = m.Mass(p, mass)
		}
		if mass > 0 {
			for i := range out {
				out[i].Prob = out[i].Raw / mass
			}
		}
	}
	// Stable on a triple-ID-sorted list: ties by ascending triple ID.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Prob > out[j].Prob })
	return out
}

// MatchMass returns the pattern's total match mass — the normalisation
// denominator Σ conf·match of MatchPattern, accumulated in the same
// canonical ascending triple-ID order finish uses, so the returned float
// is bit-identical to the denominator an unhooked matcher over the same
// store would divide by. It is the statistics side of distributed
// normalisation: a coordinator computes it over the whole corpus and
// serves it to per-shard matchers through the Mass hook.
func (m *Matcher) MatchMass(p query.Pattern) float64 {
	out, _ := m.MatchPatternCounted(p)
	sort.Slice(out, func(i, j int) bool { return out[i].Triple < out[j].Triple })
	var mass float64
	for i := range out {
		mass += out[i].Raw
	}
	return mass
}

// bind computes variable bindings for a triple, enforcing that repeated
// variables bind to the same term (e.g. ?x knows ?x).
func bind(slots [3]query.Slot, parts [3]rdf.TermID) ([]Binding, bool) {
	var out []Binding
	for i, sl := range slots {
		if !sl.IsVar() {
			continue
		}
		dup := false
		for _, b := range out {
			if b.Var == sl.Var {
				if b.Term != parts[i] {
					return nil, false
				}
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, Binding{Var: sl.Var, Term: parts[i]})
		}
	}
	return out, true
}

// consistentParts reports whether repeated variables bind to equal terms —
// bind's consistency check without allocating the binding list.
func consistentParts(slots [3]query.Slot, parts [3]rdf.TermID) bool {
	for i := 0; i < 3; i++ {
		if !slots[i].IsVar() {
			continue
		}
		for j := i + 1; j < 3; j++ {
			if slots[j].IsVar() && slots[j].Var == slots[i].Var && parts[i] != parts[j] {
				return false
			}
		}
	}
	return true
}

// hasRepeatedVar reports whether the same variable occupies two slots.
func hasRepeatedVar(slots [3]query.Slot) bool {
	for i := 0; i < 3; i++ {
		if !slots[i].IsVar() {
			continue
		}
		for j := i + 1; j < 3; j++ {
			if slots[j].IsVar() && slots[j].Var == slots[i].Var {
				return true
			}
		}
	}
	return false
}

// Selectivity returns the number of triples matching the pattern, the
// quantity behind the idf-like effect. It never materialises or scores a
// match list: patterns without token slots or repeated variables are
// answered by a permutation-index range count, token patterns by summing
// the candidate-combination range counts, and only the scan fallback
// walks candidates — counting, not building.
func (m *Matcher) Selectivity(p query.Pattern) int {
	cp, ok := m.compile(p)
	if !ok {
		return 0
	}
	repeated := hasRepeatedVar(cp.slots)
	if !cp.hasToken && !repeated {
		return m.St.Count(cp.ids[0], cp.ids[1], cp.ids[2])
	}
	var stats MatchStats
	if ranges, empty, resolved := m.resolveCombos(&cp, &stats); resolved {
		if empty {
			return 0
		}
		n := 0
		for _, r := range ranges {
			if !repeated {
				n += len(r.ids)
				continue
			}
			for _, id := range r.ids {
				tr := m.St.Triple(id)
				if consistentParts(cp.slots, [3]rdf.TermID{tr.S, tr.P, tr.O}) {
					n++
				}
			}
		}
		return n
	}
	n := 0
	for _, id := range m.St.Match(cp.ids[0], cp.ids[1], cp.ids[2]) {
		tr := m.St.Triple(id)
		parts := [3]rdf.TermID{tr.S, tr.P, tr.O}
		if _, ok := m.tokenFactor(&cp, parts); ok && consistentParts(cp.slots, parts) {
			n++
		}
	}
	return n
}
