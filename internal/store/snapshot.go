package store

// Snapshot export/import of the permutation indexes.
//
// The durable segment format persists the three columnar permutation
// indexes next to the triple column, so that reopening a store is a
// sequential read plus validation instead of three O(n log n) sorts.
// IndexSnapshot exposes the frozen columns zero-copy for the encoder;
// FreezeWithIndexes installs decoded columns after checking they really
// are the permutations Freeze would have built — a snapshot that passed
// its checksums can still be wrong if the sort order ever changes, which
// is what IndexFormatVersion guards.

import (
	"fmt"

	"trinit/internal/rdf"
)

// IndexFormatVersion identifies the on-disk layout and sort order of the
// permutation indexes. Bump it whenever buildPermIndex's output changes
// (column layout, comparator, ID width): snapshots written under another
// version are then refused as unsupported.
const IndexFormatVersion = 1

// IndexColumns is the raw columnar content of one permutation index.
type IndexColumns struct {
	IDs    []ID
	K1, K2 []rdf.TermID
}

// IndexSnapshot carries the three permutation indexes in raw columnar form.
type IndexSnapshot struct {
	SPO, POS, OSP IndexColumns
}

// IndexSnapshot returns zero-copy views of the frozen permutation indexes.
// The store is immutable after Freeze, so the returned slices stay valid;
// callers must not modify them. It panics on an unfrozen store.
func (st *Store) IndexSnapshot() IndexSnapshot {
	if !st.frozen {
		panic("store: IndexSnapshot before Freeze")
	}
	if st.delta != nil && (len(st.delta.rows) > 0 || len(st.delta.override) > 0) {
		// The permutation indexes cover only the base; exporting them as
		// the image of an overlay would silently drop the delta. Callers
		// compact (materialise a merged store) before snapshotting.
		panic("store: IndexSnapshot on a store with a live delta overlay (compact first)")
	}
	return IndexSnapshot{
		SPO: IndexColumns{IDs: st.spo.ids, K1: st.spo.k1, K2: st.spo.k2},
		POS: IndexColumns{IDs: st.pos.ids, K1: st.pos.k1, K2: st.pos.k2},
		OSP: IndexColumns{IDs: st.osp.ids, K1: st.osp.k1, K2: st.osp.k2},
	}
}

// FreezeWithIndexes freezes the store installing pre-built permutation
// indexes instead of sorting. Every column is validated against the triple
// set — length, permutation property, key-column content, and strict sort
// order — so a snapshot that decodes cleanly but carries a wrong index
// (version skew, a crafted file with recomputed checksums) is rejected
// rather than silently serving wrong ranges. On error the store is left
// unfrozen and unchanged.
func (st *Store) FreezeWithIndexes(snap IndexSnapshot) error {
	if st.frozen {
		return fmt.Errorf("store: FreezeWithIndexes on a frozen store")
	}
	spo, err := st.checkIndex("spo", snap.SPO, st.lessSPO, func(t rdf.Triple) (rdf.TermID, rdf.TermID) { return t.S, t.P })
	if err != nil {
		return err
	}
	pos, err := st.checkIndex("pos", snap.POS, st.lessPOS, func(t rdf.Triple) (rdf.TermID, rdf.TermID) { return t.P, t.O })
	if err != nil {
		return err
	}
	osp, err := st.checkIndex("osp", snap.OSP, st.lessOSP, func(t rdf.Triple) (rdf.TermID, rdf.TermID) { return t.O, t.S })
	if err != nil {
		return err
	}
	st.spo, st.pos, st.osp = spo, pos, osp
	st.finishFreeze()
	return nil
}

// checkIndex validates one decoded permutation index in O(n): the IDs must
// be a permutation of [0, Len), the key columns must mirror the triples'
// key slots, and adjacent entries must be in strictly increasing order
// under the permutation's comparator (the store holds no duplicate keys).
func (st *Store) checkIndex(name string, c IndexColumns, less func(a, b ID) bool, keys func(t rdf.Triple) (rdf.TermID, rdf.TermID)) (permIndex, error) {
	n := st.baseLen()
	if len(c.IDs) != n || len(c.K1) != n || len(c.K2) != n {
		return permIndex{}, fmt.Errorf("store: %s index columns have %d/%d/%d entries, want %d",
			name, len(c.IDs), len(c.K1), len(c.K2), n)
	}
	seen := make([]bool, n)
	for i, id := range c.IDs {
		if int(id) >= n || seen[id] {
			return permIndex{}, fmt.Errorf("store: %s index is not a permutation at row %d", name, i)
		}
		seen[id] = true
		k1, k2 := keys(st.baseTriple(id))
		if c.K1[i] != k1 || c.K2[i] != k2 {
			return permIndex{}, fmt.Errorf("store: %s index key columns diverge from triples at row %d", name, i)
		}
		if i > 0 && !less(c.IDs[i-1], id) {
			return permIndex{}, fmt.Errorf("store: %s index out of order at row %d", name, i)
		}
	}
	return permIndex{ids: c.IDs, k1: c.K1, k2: c.K2}, nil
}
