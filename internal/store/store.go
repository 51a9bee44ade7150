// Package store implements TriniT's storage backend: an in-memory,
// dictionary-encoded triple store over the extended knowledge graph.
//
// It replaces the ElasticSearch backend of the original system. The query
// processor requires exactly two capabilities from the backend, both
// provided here:
//
//  1. matching a triple pattern with any combination of bound and unbound
//     slots, via three permutation indexes (SPO, POS, OSP), and
//  2. resolving a textual query token to candidate XKG token phrases or
//     resource labels, via an inverted index over term words.
package store

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"trinit/internal/rdf"
	"trinit/internal/text"
)

// Store is an immutable-after-Freeze triple store over the XKG.
//
// A store serves its base triples from one of two representations: heap
// rows (triples, populated by Add) or zero-copy mapped columns (cols,
// installed by NewMapped over a memory-mapped segment). On top of either
// base, an optional immutable delta overlay (delta, installed by
// WithDelta) splices post-freeze ingest into every read path.
type Store struct {
	dict *rdf.Dict
	prov *rdf.ProvTable

	triples []rdf.Triple
	byKey   map[rdf.Key]ID

	// cols, when non-nil, holds the base triple columns as views into a
	// memory-mapped segment; triples and byKey are nil in that mode.
	cols *MappedColumns

	// delta, when non-nil, overlays post-freeze ingest on the frozen
	// base (see Delta). The overlay store is a shallow copy of the base,
	// so base reads stay zero-copy.
	delta *Delta

	// lazy, when non-nil, holds derived read structures (token index,
	// term token sets, predicate stats) built on first use instead of at
	// Freeze — mapped stores defer them so opening a segment stays O(1)
	// in the triple count. Shared by pointer across shallow copies.
	lazy *lazyDerived

	// Permutation indexes, built by Freeze.
	spo, pos, osp permIndex
	frozen        bool

	// termSets[id] is the content-token set of term id's surface text,
	// precomputed by Freeze for every term interned at that point, so that
	// phrase-similarity scoring against dictionary terms never re-tokenizes
	// the dictionary side.
	termSets []text.TokenSet

	// Predicate statistics, precomputed by Freeze (the triple set is
	// immutable afterwards, so one scan serves every later call).
	predStats                 []PredicateStat
	tokenPreds, resourcePreds int

	tokens *tokenIndex

	numKG, numXKG int

	// addLog records the IDs of triples inserted or replaced since the
	// last DrainAdds, when tracking is enabled. The durable engine uses
	// it to mirror batch ingest into the write-ahead log.
	addLog    []ID
	trackAdds bool
}

// ID identifies a triple inside a Store.
type ID uint32

// New returns an empty store sharing the given dictionary and provenance
// table. Passing nil creates fresh ones.
func New(dict *rdf.Dict, prov *rdf.ProvTable) *Store {
	if dict == nil {
		dict = rdf.NewDict()
	}
	if prov == nil {
		prov = rdf.NewProvTable()
	}
	return &Store{
		dict:   dict,
		prov:   prov,
		byKey:  make(map[rdf.Key]ID),
		tokens: newTokenIndex(),
	}
}

// Dict returns the store's term dictionary.
func (st *Store) Dict() *rdf.Dict { return st.dict }

// Prov returns the store's provenance table.
func (st *Store) Prov() *rdf.ProvTable { return st.prov }

// Add inserts a triple. Triples are deduplicated by their (S, P, O) key;
// when the same fact is added twice, the copy with the higher confidence is
// kept (the paper's XKG consists of distinct triples). Add panics if the
// store has been frozen, since index maintenance after Freeze is not
// supported.
func (st *Store) Add(t rdf.Triple) ID {
	if st.frozen {
		panic("store: Add after Freeze")
	}
	if t.Conf <= 0 || t.Conf > 1 {
		panic(fmt.Sprintf("store: triple confidence %v outside (0, 1]", t.Conf))
	}
	if id, ok := st.byKey[t.Key()]; ok {
		if t.Conf > st.triples[id].Conf {
			st.countSource(st.triples[id].Source, -1)
			st.triples[id] = t
			st.countSource(t.Source, +1)
			if st.trackAdds {
				st.addLog = append(st.addLog, id)
			}
		}
		return id
	}
	id := ID(len(st.triples))
	st.triples = append(st.triples, t)
	st.byKey[t.Key()] = id
	st.countSource(t.Source, +1)
	if st.trackAdds {
		st.addLog = append(st.addLog, id)
	}
	return id
}

// TrackAdds enables or disables recording of inserted/replaced triple IDs.
// The durable engine turns it on so that batch ingest (document pipelines
// that write straight into the store) can be mirrored into the write-ahead
// log after the fact.
func (st *Store) TrackAdds(on bool) { st.trackAdds = on }

// DrainAdds returns the IDs recorded since the last drain and resets the
// log. A replaced triple (same key, higher confidence) appears again with
// its original ID, so replaying the drained rows in order reproduces the
// final state.
func (st *Store) DrainAdds() []ID {
	out := st.addLog
	st.addLog = nil
	return out
}

func (st *Store) countSource(s rdf.Source, d int) {
	if s == rdf.SourceKG {
		st.numKG += d
	} else {
		st.numXKG += d
	}
}

// AddFact is a convenience that interns the three terms and adds a triple.
func (st *Store) AddFact(s, p, o rdf.Term, src rdf.Source, conf float64, prov rdf.ProvID) ID {
	return st.Add(rdf.Triple{
		S:      st.dict.Intern(s),
		P:      st.dict.Intern(p),
		O:      st.dict.Intern(o),
		Source: src,
		Conf:   conf,
		Prov:   prov,
	})
}

// AddKG adds a curated KG fact between resources with confidence 1.
func (st *Store) AddKG(s, p, o rdf.Term) ID {
	return st.AddFact(s, p, o, rdf.SourceKG, 1, rdf.NoProv)
}

// Triple returns the triple with the given ID. IDs at or past the base
// length address delta rows; base IDs reflect any delta override (same
// fact re-ingested at higher confidence).
func (st *Store) Triple(id ID) rdf.Triple {
	if st.delta != nil {
		if t, ok := st.delta.triple(id); ok {
			return t
		}
	}
	return st.baseTriple(id)
}

// baseTriple reads a base triple from whichever representation holds it.
func (st *Store) baseTriple(id ID) rdf.Triple {
	if c := st.cols; c != nil {
		return rdf.Triple{
			S:      c.S[id],
			P:      c.P[id],
			O:      c.O[id],
			Source: rdf.Source(c.Src[id]),
			Conf:   c.Conf[id],
			Prov:   c.Prov[id],
		}
	}
	return st.triples[id]
}

// baseLen returns the number of base (pre-delta) triples.
func (st *Store) baseLen() int {
	if st.cols != nil {
		return len(st.cols.S)
	}
	return len(st.triples)
}

// Len returns the number of distinct triples, including delta rows.
func (st *Store) Len() int {
	n := st.baseLen()
	if st.delta != nil {
		n += len(st.delta.rows)
	}
	return n
}

// NumKG and NumXKG report the number of triples per source.
func (st *Store) NumKG() int {
	if st.delta != nil {
		return st.numKG + st.delta.addKG
	}
	return st.numKG
}

func (st *Store) NumXKG() int {
	if st.delta != nil {
		return st.numXKG + st.delta.addXKG
	}
	return st.numXKG
}

// Contains reports whether the exact fact is stored.
func (st *Store) Contains(s, p, o rdf.TermID) bool {
	_, ok := st.lookupKey(rdf.Key{S: s, P: p, O: o})
	return ok
}

// lookupKey resolves an exact (S, P, O) key to its triple ID across the
// delta overlay and the base.
func (st *Store) lookupKey(k rdf.Key) (ID, bool) {
	if st.delta != nil {
		if id, ok := st.delta.byKey[k]; ok {
			return id, true
		}
	}
	return st.baseLookup(k)
}

// baseLookup resolves an exact key against the base representation: the
// byKey hash for heap stores, a binary search of the SPO permutation for
// mapped ones (whose strict sort order checkIndex verified at open).
func (st *Store) baseLookup(k rdf.Key) (ID, bool) {
	if st.byKey != nil {
		id, ok := st.byKey[k]
		return id, ok
	}
	lo, hi := st.spo.searchRange(k.S, k.P, true)
	i := lo + sort.Search(hi-lo, func(i int) bool {
		return st.baseTriple(st.spo.ids[lo+i]).O >= k.O
	})
	if i < hi {
		if id := st.spo.ids[i]; st.baseTriple(id).O == k.O {
			return id, true
		}
	}
	return 0, false
}

// permIndex is one permutation index in columnar struct-of-arrays form:
// ids holds the triple IDs in permutation order, and k1/k2 mirror the two
// leading key columns of that order, so range binary searches compare
// against contiguous []TermID arrays instead of chasing triples[ids[i]]
// through a comparator closure. The third key column never participates in
// a search — fully bound patterns resolve through the byKey hash — so it
// is not materialised.
type permIndex struct {
	ids    []ID
	k1, k2 []rdf.TermID
}

// searchRange binary-searches the columnar keys for the half-open
// [lo, hi) range where k1 equals a — and, when both is set, k2 equals b.
func (ix *permIndex) searchRange(a, b rdf.TermID, both bool) (lo, hi int) {
	n := len(ix.ids)
	if both {
		lo = sort.Search(n, func(i int) bool {
			return ix.k1[i] > a || (ix.k1[i] == a && ix.k2[i] >= b)
		})
		hi = sort.Search(n, func(i int) bool {
			return ix.k1[i] > a || (ix.k1[i] == a && ix.k2[i] > b)
		})
		return lo, hi
	}
	lo = sort.Search(n, func(i int) bool { return ix.k1[i] >= a })
	hi = sort.Search(n, func(i int) bool { return ix.k1[i] > a })
	return lo, hi
}

// permRow is one triple's full key in a permutation's column order,
// packed for sorting: hi holds the two leading keys, lo the third key and
// the triple ID.
type permRow struct{ hi, lo uint64 }

// buildPermIndex sorts the triple IDs under the permutation's key order
// and materialises its two leading key columns. Keys are unique, so the
// order is total and the result does not depend on the sort algorithm.
func (st *Store) buildPermIndex(which permKind) permIndex {
	rows := make([]permRow, len(st.triples))
	for i, t := range st.triples {
		a, b, c := permKeys(t, which)
		rows[i] = permRow{hi: uint64(a)<<32 | uint64(b), lo: uint64(c)<<32 | uint64(i)}
	}
	slices.SortFunc(rows, func(x, y permRow) int {
		if x.hi != y.hi {
			return cmp.Compare(x.hi, y.hi)
		}
		return cmp.Compare(x.lo, y.lo)
	})
	n := len(rows)
	ix := permIndex{
		ids: make([]ID, n),
		k1:  make([]rdf.TermID, n),
		k2:  make([]rdf.TermID, n),
	}
	for i, r := range rows {
		ix.ids[i] = ID(uint32(r.lo))
		ix.k1[i], ix.k2[i] = rdf.TermID(r.hi>>32), rdf.TermID(uint32(r.hi))
	}
	return ix
}

// Freeze builds the permutation and token indexes, the per-term token
// sets, and the predicate statistics. After Freeze the store is immutable
// and safe for concurrent reads. Freeze is idempotent. The three
// permutation indexes only read the triples, so they are sorted
// concurrently.
func (st *Store) Freeze() {
	if st.frozen {
		return
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); st.spo = st.buildPermIndex(permSPO) }()
	go func() { defer wg.Done(); st.pos = st.buildPermIndex(permPOS) }()
	st.osp = st.buildPermIndex(permOSP)
	wg.Wait()
	st.finishFreeze()
}

// finishFreeze builds everything Freeze derives besides the permutation
// indexes — token index, per-term token sets, predicate statistics — and
// marks the store frozen. Shared by Freeze (which sorts the indexes) and
// FreezeWithIndexes (which installs pre-built ones from a snapshot).
func (st *Store) finishFreeze() {
	st.buildTokenIndex()
	st.termSets = make([]text.TokenSet, st.dict.Len()+1)
	for id := 1; id < len(st.termSets); id++ {
		st.termSets[id] = text.NewTokenSet(st.dict.Term(rdf.TermID(id)).Text)
	}
	st.predStats = st.computePredicates()
	for _, ps := range st.predStats {
		if st.dict.Term(ps.Pred).Kind == rdf.KindToken {
			st.tokenPreds++
		} else {
			st.resourcePreds++
		}
	}
	st.frozen = true
}

// TermTokenSet returns the content-token set of the term's surface text.
// For terms interned before Freeze it is the set precomputed there (or on
// first use, for mapped stores; shared, read-only); terms interned
// afterwards — query-time components and delta ingest share the
// dictionary — are tokenized on the fly.
func (st *Store) TermTokenSet(id rdf.TermID) text.TokenSet {
	sets := st.termSets
	if st.lazy != nil {
		st.lazy.ensureTokens(st)
		sets = st.lazy.termSets
	}
	if int(id) < len(sets) {
		return sets[id]
	}
	return text.NewTokenSet(st.dict.Term(id).Text)
}

// Frozen reports whether Freeze has been called.
func (st *Store) Frozen() bool { return st.frozen }

// permKind names one of the three permutation orders.
type permKind uint8

const (
	permSPO permKind = iota
	permPOS
	permOSP
)

// permKeys returns the triple's full key in the permutation's column
// order.
func permKeys(t rdf.Triple, which permKind) (a, b, c rdf.TermID) {
	switch which {
	case permSPO:
		return t.S, t.P, t.O
	case permPOS:
		return t.P, t.O, t.S
	default:
		return t.O, t.S, t.P
	}
}

// permKeyLess compares two triples under the permutation's lexicographic
// key order. Keys are unique within a store (Add deduplicates), so this
// is a strict total order over distinct facts.
func permKeyLess(ta, tb rdf.Triple, which permKind) bool {
	a1, a2, a3 := permKeys(ta, which)
	b1, b2, b3 := permKeys(tb, which)
	if a1 != b1 {
		return a1 < b1
	}
	if a2 != b2 {
		return a2 < b2
	}
	return a3 < b3
}

func (st *Store) lessSPO(a, b ID) bool {
	return permKeyLess(st.baseTriple(a), st.baseTriple(b), permSPO)
}

func (st *Store) lessPOS(a, b ID) bool {
	return permKeyLess(st.baseTriple(a), st.baseTriple(b), permPOS)
}

func (st *Store) lessOSP(a, b ID) bool {
	return permKeyLess(st.baseTriple(a), st.baseTriple(b), permOSP)
}

// Match returns the IDs of all triples matching the pattern, where NoTerm
// in a slot acts as a wildcard. The result is in index order of the chosen
// permutation, which is deterministic. Match requires a frozen store.
//
// Except in the fully bound case, the returned slice is a zero-copy view
// into the frozen permutation index — the store is immutable after Freeze,
// so it stays valid and concurrent-read-safe indefinitely — and callers
// must not modify it.
func (st *Store) Match(s, p, o rdf.TermID) []ID {
	if !st.frozen {
		panic("store: Match before Freeze")
	}
	if s != rdf.NoTerm && p != rdf.NoTerm && o != rdf.NoTerm {
		if id, ok := st.lookupKey(rdf.Key{S: s, P: p, O: o}); ok {
			return []ID{id}
		}
		return nil
	}
	// Base membership and order are unaffected by overrides (same key),
	// so a delta with no new rows answers straight from the base.
	merge := st.delta != nil && len(st.delta.rows) > 0
	if s == rdf.NoTerm && p == rdf.NoTerm && o == rdf.NoTerm {
		if !merge {
			return st.spo.ids
		}
		return st.mergePerm(st.spo.ids, st.delta.spo, permSPO)
	}
	ix, which, lo, hi := st.rangeFor(s, p, o)
	var base []ID
	if lo < hi {
		base = ix.ids[lo:hi]
	}
	if !merge {
		return base
	}
	dl := st.delta.matchPerm(which, s, p, o)
	if len(dl) == 0 {
		return base
	}
	return st.mergePerm(base, dl, which)
}

// mergePerm merges a base permutation range with a (small) delta ID list
// sorted under the same permutation. Keys are disjoint — a re-asserted
// fact becomes an override, never a delta row — so the merge is the exact
// order a compacted store's sorted index would produce.
func (st *Store) mergePerm(base, dl []ID, which permKind) []ID {
	out := make([]ID, 0, len(base)+len(dl))
	i, j := 0, 0
	for i < len(base) && j < len(dl) {
		if permKeyLess(st.Triple(base[i]), st.Triple(dl[j]), which) {
			out = append(out, base[i])
			i++
		} else {
			out = append(out, dl[j])
			j++
		}
	}
	out = append(out, base[i:]...)
	out = append(out, dl[j:]...)
	return out
}

// MatchEach calls fn for every matching triple ID, in the same
// deterministic order Match returns, without materialising a result slice.
// fn returning false stops the iteration. MatchEach requires a frozen
// store.
func (st *Store) MatchEach(s, p, o rdf.TermID, fn func(ID) bool) {
	if !st.frozen {
		panic("store: MatchEach before Freeze")
	}
	if s != rdf.NoTerm && p != rdf.NoTerm && o != rdf.NoTerm {
		if id, ok := st.lookupKey(rdf.Key{S: s, P: p, O: o}); ok {
			fn(id)
		}
		return
	}
	for _, id := range st.Match(s, p, o) {
		if !fn(id) {
			return
		}
	}
}

// rangeFor picks the permutation index and the key range for a partially
// bound pattern (at least one bound and one wildcard slot). Match, Count
// and MatchEach share it, so their index choice cannot diverge; the
// returned permKind lets the delta overlay filter under the same order.
func (st *Store) rangeFor(s, p, o rdf.TermID) (ix *permIndex, which permKind, lo, hi int) {
	switch {
	case s != rdf.NoTerm && p != rdf.NoTerm:
		ix, which = &st.spo, permSPO
		lo, hi = ix.searchRange(s, p, true)
	case s != rdf.NoTerm && o != rdf.NoTerm:
		ix, which = &st.osp, permOSP
		lo, hi = ix.searchRange(o, s, true)
	case p != rdf.NoTerm && o != rdf.NoTerm:
		ix, which = &st.pos, permPOS
		lo, hi = ix.searchRange(p, o, true)
	case s != rdf.NoTerm:
		ix, which = &st.spo, permSPO
		lo, hi = ix.searchRange(s, rdf.NoTerm, false)
	case p != rdf.NoTerm:
		ix, which = &st.pos, permPOS
		lo, hi = ix.searchRange(p, rdf.NoTerm, false)
	default:
		ix, which = &st.osp, permOSP
		lo, hi = ix.searchRange(o, rdf.NoTerm, false)
	}
	return ix, which, lo, hi
}

// Count returns the number of triples matching the pattern without
// materialising them: it binary-searches the same permutation index Match
// would use and returns the range length (plus the delta's matching rows).
// It is the selectivity source of the query planner. Count requires a
// frozen store except in the fully bound and fully unbound cases, which
// need no index.
func (st *Store) Count(s, p, o rdf.TermID) int {
	switch {
	case s != rdf.NoTerm && p != rdf.NoTerm && o != rdf.NoTerm:
		if _, ok := st.lookupKey(rdf.Key{S: s, P: p, O: o}); ok {
			return 1
		}
		return 0
	case s == rdf.NoTerm && p == rdf.NoTerm && o == rdf.NoTerm:
		return st.Len()
	}
	if !st.frozen {
		panic("store: Count before Freeze")
	}
	_, _, lo, hi := st.rangeFor(s, p, o)
	n := hi - lo
	if st.delta != nil {
		n += st.delta.countMatch(s, p, o)
	}
	return n
}

// Predicates returns the distinct predicate terms in ascending TermID
// order, with their triple counts. After Freeze the base statistics are
// served from a precomputed (or lazily built, for mapped stores) snapshot
// instead of rescanning all triples; delta rows are merged in.
func (st *Store) Predicates() []PredicateStat {
	base := st.basePredStats()
	if st.delta == nil || len(st.delta.predCounts) == 0 {
		return append([]PredicateStat(nil), base...)
	}
	counts := make(map[rdf.TermID]int, len(base)+len(st.delta.predCounts))
	for _, ps := range base {
		counts[ps.Pred] = ps.Count
	}
	for p, c := range st.delta.predCounts {
		counts[p] += c
	}
	ids := make([]rdf.TermID, 0, len(counts))
	for p := range counts {
		ids = append(ids, p)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]PredicateStat, len(ids))
	for i, p := range ids {
		out[i] = PredicateStat{Pred: p, Count: counts[p]}
	}
	return out
}

// basePredStats returns the per-predicate statistics of the base triples
// (not a defensive copy — callers must not modify it).
func (st *Store) basePredStats() []PredicateStat {
	if !st.frozen {
		return st.computePredicates()
	}
	if st.lazy != nil {
		st.lazy.ensurePreds(st)
		return st.lazy.predStats
	}
	return st.predStats
}

// computePredicates scans the base triples for per-predicate counts.
func (st *Store) computePredicates() []PredicateStat {
	counts := make(map[rdf.TermID]int)
	for i, n := 0, st.baseLen(); i < n; i++ {
		counts[st.baseTriple(ID(i)).P]++
	}
	ids := make([]rdf.TermID, 0, len(counts))
	for p := range counts {
		ids = append(ids, p)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]PredicateStat, len(ids))
	for i, p := range ids {
		out[i] = PredicateStat{Pred: p, Count: counts[p]}
	}
	return out
}

// PredicateStat pairs a predicate with its number of triples.
type PredicateStat struct {
	Pred  rdf.TermID
	Count int
}

// Stats summarises the store contents (§5 reports these for the demo XKG).
type Stats struct {
	Triples        int
	KGTriples      int
	XKGTriples     int
	Terms          int
	Resources      int
	Literals       int
	Tokens         int
	Predicates     int
	TokenPreds     int // predicates that are token phrases
	ResourcePreds  int // predicates that are canonical resources
	ProvenanceRecs int
}

// Stats computes summary statistics. After Freeze the delta-free case is
// O(1) in the triple count: predicate statistics come from the snapshot
// precomputed at Freeze (or built once on demand for mapped stores), and
// per-kind term counts are maintained incrementally by the dictionary (so
// terms interned after Freeze — e.g. by query-time components sharing the
// dictionary — are still counted).
func (st *Store) Stats() Stats {
	s := Stats{
		Triples:        st.Len(),
		KGTriples:      st.NumKG(),
		XKGTriples:     st.NumXKG(),
		Terms:          st.dict.Len(),
		ProvenanceRecs: st.prov.Len(),
	}
	s.Resources, s.Literals, s.Tokens = st.dict.KindCounts()
	if st.frozen && st.delta == nil {
		if st.lazy != nil {
			st.lazy.ensurePreds(st)
			s.Predicates = len(st.lazy.predStats)
			s.TokenPreds = st.lazy.tokenPreds
			s.ResourcePreds = st.lazy.resourcePreds
			return s
		}
		s.Predicates = len(st.predStats)
		s.TokenPreds = st.tokenPreds
		s.ResourcePreds = st.resourcePreds
		return s
	}
	for _, ps := range st.Predicates() {
		s.Predicates++
		if st.dict.Term(ps.Pred).Kind == rdf.KindToken {
			s.TokenPreds++
		} else {
			s.ResourcePreds++
		}
	}
	return s
}
