package serial

// Zero-copy snapshot opening. OpenSnapshotMapped memory-maps a segment
// file and serves its triple columns and permutation indexes directly as
// typed views into the mapping: open time is dominated by the one
// verification pass (header CRC, per-section CRCs, O(n) store validation)
// plus the eager decode of the small string-bearing sections (dictionary,
// provenance, rules) — never by materialising the columns.
//
// Two failure families are kept distinct. ErrNotMappable means the host
// cannot serve the file zero-copy (a platform without mmap, a big-endian
// host, a failed mmap call) and the caller should fall back to the eager
// decoder. ErrCorrupt means the file is damaged or in a format this
// build does not read; falling back would decode the same bytes, so the
// caller must surface it. Every byte the mapped store will ever
// dereference is CRC-verified and bounds-validated at open, so a truncated
// or bit-flipped file fails here with ErrCorrupt rather than faulting
// mid-query.

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"unsafe"

	"trinit/internal/rdf"
	"trinit/internal/store"
)

// ErrNotMappable reports that the host cannot serve a snapshot zero-copy
// and the caller should fall back to eager decoding. It is never returned
// for a file's content — damaged or unsupported files are ErrCorrupt.
var ErrNotMappable = errors.New("serial: snapshot not mappable")

// hostLittleEndian reports whether the running host matches the file
// format's little-endian column layout; a big-endian host must decode.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// MappedSnapshot is a Snapshot whose store serves triples and indexes from
// a private read-only mapping of the segment file. Close unmaps it; the
// caller owns the ordering between Close and the last reader (the engine
// defers Close until every epoch-pinned query over the mapping drains).
type MappedSnapshot struct {
	Snapshot
	data   []byte
	closed atomic.Bool
}

// MappedBytes returns the size of the underlying mapping.
func (m *MappedSnapshot) MappedBytes() int {
	if m == nil {
		return 0
	}
	return len(m.data)
}

// Close unmaps the snapshot. The store becomes unusable; Close is
// idempotent.
func (m *MappedSnapshot) Close() error {
	if m == nil || !m.closed.CompareAndSwap(false, true) {
		return nil
	}
	return munmapBytes(m.data)
}

// OpenSnapshotMapped maps the segment file at path and assembles a store
// over zero-copy column views. It returns ErrNotMappable (possibly
// wrapped) when the host requires the eager decode path, and ErrCorrupt
// when the file is damaged or unsupported.
func OpenSnapshotMapped(path string) (*MappedSnapshot, error) {
	if !mmapSupported {
		return nil, fmt.Errorf("%w: no mmap on this platform", ErrNotMappable)
	}
	if !hostLittleEndian {
		return nil, fmt.Errorf("%w: big-endian host", ErrNotMappable)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi.Size() < headerSize {
		f.Close()
		return nil, corruptf("snapshot file is %d bytes, smaller than a header", fi.Size())
	}
	data, err := mmapFile(f, int(fi.Size()))
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("%w: mmap %s: %v", ErrNotMappable, path, err)
	}
	snap, err := openMapped(data)
	if err != nil {
		munmapBytes(data)
		return nil, err
	}
	return snap, nil
}

// openMapped verifies the mapped image and builds the snapshot over it.
func openMapped(data []byte) (*MappedSnapshot, error) {
	epoch, err := checkHeader(data)
	if err != nil {
		return nil, err
	}
	snap := &MappedSnapshot{
		Snapshot: Snapshot{Epoch: epoch, Bytes: int64(len(data))},
		data:     data,
	}
	dict := rdf.NewDict()
	prov := rdf.NewProvTable()
	var cols *store.MappedColumns
	var idx store.IndexSnapshot
	err = walkSections(data, func(id byte, payload []byte) error {
		switch id {
		case secDict:
			return decodeDict(payload, dict)
		case secProv:
			return decodeProv(payload, prov)
		case secTriples:
			var err error
			cols, err = viewTriples(payload)
			return err
		case secSPO, secPOS, secOSP:
			c, err := viewIndex(payload)
			*indexSlot(&idx, id) = c
			return err
		case secRules:
			rules, err := decodeRules(payload)
			snap.Rules = rules
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	st, err := store.NewMapped(dict, prov, cols, idx)
	if err != nil {
		return nil, corruptf("%v", err)
	}
	snap.Store = st
	return snap, nil
}

// viewTriples casts the columnar triple section into zero-copy column
// views over the mapping.
func viewTriples(payload []byte) (*store.MappedColumns, error) {
	n, err := triplesN(payload)
	if err != nil {
		return nil, err
	}
	conf, err := viewF64(payload[8:], n)
	if err != nil {
		return nil, err
	}
	s, err := viewU32[rdf.TermID](payload[8+8*n:], n)
	if err != nil {
		return nil, err
	}
	p, err := viewU32[rdf.TermID](payload[8+12*n:], n)
	if err != nil {
		return nil, err
	}
	o, err := viewU32[rdf.TermID](payload[8+16*n:], n)
	if err != nil {
		return nil, err
	}
	pv, err := viewU32[rdf.ProvID](payload[8+20*n:], n)
	if err != nil {
		return nil, err
	}
	return &store.MappedColumns{
		S:    s,
		P:    p,
		O:    o,
		Conf: conf,
		Prov: pv,
		Src:  payload[8+24*n : 8+25*n],
	}, nil
}

// viewIndex casts one columnar index section into zero-copy views.
func viewIndex(payload []byte) (store.IndexColumns, error) {
	n, err := indexN(payload)
	if err != nil {
		return store.IndexColumns{}, err
	}
	ids, err := viewU32[store.ID](payload[8:], n)
	if err != nil {
		return store.IndexColumns{}, err
	}
	k1, err := viewU32[rdf.TermID](payload[8+4*n:], n)
	if err != nil {
		return store.IndexColumns{}, err
	}
	k2, err := viewU32[rdf.TermID](payload[8+8*n:], n)
	if err != nil {
		return store.IndexColumns{}, err
	}
	return store.IndexColumns{IDs: ids, K1: k1, K2: k2}, nil
}

// viewU32 reinterprets b's first 4n bytes as a []T without copying. The
// format guarantees element-size alignment (8-aligned payload starts,
// column offsets that are multiples of 4); the check is a defensive
// invariant, not a reachable decode path.
func viewU32[T ~uint32](b []byte, n int) ([]T, error) {
	if n == 0 {
		return nil, nil
	}
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%4 != 0 {
		return nil, corruptf("column view misaligned for 4-byte elements")
	}
	return unsafe.Slice((*T)(p), n), nil
}

// viewF64 reinterprets b's first 8n bytes as a []float64 without copying.
func viewF64(b []byte, n int) ([]float64, error) {
	if n == 0 {
		return nil, nil
	}
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%8 != 0 {
		return nil, corruptf("column view misaligned for 8-byte elements")
	}
	return unsafe.Slice((*float64)(p), n), nil
}
