package store

// Mapped-column stores: a Store whose base triples and permutation
// indexes are zero-copy views into a memory-mapped segment file.
//
// The serial layer hands NewMapped the column views it cast out of a
// verified segment. NewMapped re-validates everything it will trust at
// query time — triple fields against the dictionary and provenance table,
// and the three permutation indexes via the same checkIndex pass an eager
// snapshot load runs — so a crafted file with recomputed checksums is
// rejected rather than silently serving wrong ranges. What it does NOT do
// is materialise: no triple rows, no byKey hash (exact-key lookups binary
// search the SPO permutation instead), and the derived read structures
// (token index, term token sets, predicate statistics) are built lazily
// on first use, keeping open time independent of the triple count.

import (
	"fmt"
	"sync"

	"trinit/internal/rdf"
	"trinit/internal/text"
)

// MappedColumns holds the base triple columns of a mapped store. The
// slices alias a read-only memory-mapped file; they must never be written
// through, and they become invalid when the mapping is unmapped — the
// engine's epoch pinning defers unmap until the last reader drains.
type MappedColumns struct {
	S, P, O []rdf.TermID
	Conf    []float64
	Prov    []rdf.ProvID
	Src     []byte
}

// lazyDerived holds the read structures Freeze would have precomputed,
// built on first use instead. It is shared by pointer across the shallow
// store copies WithDelta creates, so one build serves every overlay over
// the same base.
type lazyDerived struct {
	tokOnce  sync.Once
	tokens   *tokenIndex
	termSets []text.TokenSet

	predOnce                  sync.Once
	predStats                 []PredicateStat
	tokenPreds, resourcePreds int
}

// ensureTokens builds the token index and per-term token sets once. They
// cover the base triples and the dictionary as of the build; terms
// interned later fall back to on-the-fly tokenization in TermTokenSet,
// which yields identical sets.
func (lz *lazyDerived) ensureTokens(st *Store) {
	lz.tokOnce.Do(func() {
		ix := newTokenIndex()
		st.buildTokenIndexInto(ix)
		sets := make([]text.TokenSet, st.dict.Len()+1)
		for id := 1; id < len(sets); id++ {
			sets[id] = text.NewTokenSet(st.dict.Term(rdf.TermID(id)).Text)
		}
		lz.termSets = sets
		lz.tokens = ix
	})
}

// ensurePreds computes the base predicate statistics once.
func (lz *lazyDerived) ensurePreds(st *Store) {
	lz.predOnce.Do(func() {
		lz.predStats = st.computePredicates()
		for _, ps := range lz.predStats {
			if st.dict.Term(ps.Pred).Kind == rdf.KindToken {
				lz.tokenPreds++
			} else {
				lz.resourcePreds++
			}
		}
	})
}

// NewMapped assembles a frozen store over mapped column views. It
// validates every triple field and all three permutation indexes in O(n)
// and returns an error (never a partially usable store) on any
// inconsistency. The dictionary and provenance table are the eagerly
// decoded ones — their strings must survive an unmap.
func NewMapped(dict *rdf.Dict, prov *rdf.ProvTable, cols *MappedColumns, idx IndexSnapshot) (*Store, error) {
	n := len(cols.S)
	if len(cols.P) != n || len(cols.O) != n || len(cols.Conf) != n || len(cols.Prov) != n || len(cols.Src) != n {
		return nil, fmt.Errorf("store: mapped columns have unequal lengths")
	}
	st := &Store{
		dict: dict,
		prov: prov,
		cols: cols,
		lazy: &lazyDerived{},
	}
	for i := 0; i < n; i++ {
		t := st.baseTriple(ID(i))
		if err := ValidateTriple(t, dict, prov); err != nil {
			return nil, fmt.Errorf("store: mapped triple %d: %w", i, err)
		}
		st.countSource(t.Source, +1)
	}
	spo, err := st.checkIndex("spo", idx.SPO, st.lessSPO, func(t rdf.Triple) (rdf.TermID, rdf.TermID) { return t.S, t.P })
	if err != nil {
		return nil, err
	}
	pos, err := st.checkIndex("pos", idx.POS, st.lessPOS, func(t rdf.Triple) (rdf.TermID, rdf.TermID) { return t.P, t.O })
	if err != nil {
		return nil, err
	}
	osp, err := st.checkIndex("osp", idx.OSP, st.lessOSP, func(t rdf.Triple) (rdf.TermID, rdf.TermID) { return t.O, t.S })
	if err != nil {
		return nil, err
	}
	st.spo, st.pos, st.osp = spo, pos, osp
	st.frozen = true
	return st, nil
}

// ValidateTriple checks a decoded triple against the dictionary and
// provenance table it will be served with: every term must be in the
// dictionary, the source known, the confidence in (0, 1], and the
// provenance reference (if any) in range. Both segment decoders, eager
// and mapped, run it on every record before trusting a file's triples.
func ValidateTriple(t rdf.Triple, dict *rdf.Dict, prov *rdf.ProvTable) error {
	if !dict.Valid(t.S) || !dict.Valid(t.P) || !dict.Valid(t.O) {
		return fmt.Errorf("references a term outside the dictionary")
	}
	if uint8(t.Source) > uint8(rdf.SourceXKG) {
		return fmt.Errorf("has unknown source %d", t.Source)
	}
	if !(t.Conf > 0 && t.Conf <= 1) {
		return fmt.Errorf("confidence %v outside (0, 1]", t.Conf)
	}
	if t.Prov != rdf.NoProv && int(t.Prov) > prov.Len() {
		return fmt.Errorf("references provenance record %d of %d", t.Prov, prov.Len())
	}
	return nil
}

// Mapped reports whether the store's base triples are served from mapped
// column views rather than heap rows.
func (st *Store) Mapped() bool { return st.cols != nil }
