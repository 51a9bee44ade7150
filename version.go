package trinit

// Epoch-pinned MVCC store versions.
//
// Every published store state — the snapshot loaded at Open, the overlay
// after each live-ingest batch, the merged store after a compaction — is
// wrapped in an immutable storeVersion bundling the store with everything
// derived from it: the match-list cache, the executor pool, the suggester
// and the question translator. Queries pin the current version at
// admission and read it lock-free for their whole lifetime;
// ingest and compaction publish a successor under the engine lock and
// retire the old version without ever blocking the read path.
//
// Retirement matters only for memory-mapped bases: heap stores are
// garbage-collected whenever the last reference drops, but a mapping must
// be munmapped explicitly — and never while a pinned query (or a Result
// whose lazy explanations still point into it) can dereference the
// columns. A retired version is therefore released only when its pin
// count drains to zero, and the mapping itself is reference-counted
// across the versions that share it (an ingest publish reuses the base's
// mapping; only a compaction replaces it).

import (
	"sync"
	"sync/atomic"

	"trinit/internal/qa"
	"trinit/internal/serial"
	"trinit/internal/store"
	"trinit/internal/suggest"
	"trinit/internal/topk"
)

// mappedRef reference-counts one memory-mapped segment across the store
// versions serving from it. The count reaching zero unmaps the segment.
type mappedRef struct {
	m    *serial.MappedSnapshot
	refs atomic.Int64
}

func newMappedRef(m *serial.MappedSnapshot) *mappedRef {
	if m == nil {
		return nil
	}
	return &mappedRef{m: m}
}

// acquire takes one reference; nil-safe for heap-backed versions.
func (r *mappedRef) acquire() *mappedRef {
	if r != nil {
		r.refs.Add(1)
	}
	return r
}

// drop releases one reference, unmapping the segment on the last.
func (r *mappedRef) drop() {
	if r != nil && r.refs.Add(-1) == 0 {
		r.m.Close()
	}
}

func (r *mappedRef) bytes() int {
	if r == nil {
		return 0
	}
	return r.m.MappedBytes()
}

// storeVersion is one immutable published store state.
type storeVersion struct {
	engine *Engine
	// st is the read view queries run against: the base itself, or the
	// base with a delta overlay spliced in.
	st *store.Store
	// base is the overlay-free frozen base; delta is nil without live
	// ingest.
	base   *store.Store
	delta  *store.Delta
	epoch  uint64
	mapped *mappedRef

	// cache and execs are this version's match-list cache and executor
	// pool: match lists are relative to one store state, so a publish
	// starts both fresh.
	cache *topk.Cache
	execs *sync.Pool

	// sug and tr are the version's query suggester and question
	// translator. Neither does store-sized work at construction, so
	// publish, segment open and ingest latency stay independent of the
	// triple count: the suggester memoises each token's suggestion for
	// this version and builds its completion trie on the first Complete.
	sug *suggest.Suggester
	tr  *qa.Translator

	pins    atomic.Int64
	retired atomic.Bool
	release sync.Once
}

// newStoreVersion assembles a version over st (base plus optional delta),
// taking a reference on the mapping that backs it, if any.
func newStoreVersion(e *Engine, st, base *store.Store, delta *store.Delta, mapped *mappedRef, epoch uint64) *storeVersion {
	v := &storeVersion{
		engine: e,
		st:     st,
		base:   base,
		delta:  delta,
		epoch:  epoch,
		mapped: mapped.acquire(),
		cache:  topk.NewCache(e.opts.MatchCacheSize),
		sug:    suggest.New(st),
		tr:     qa.NewTranslator(st),
	}
	opts := e.topkOptions()
	cache := v.cache
	v.execs = &sync.Pool{New: func() any { return topk.NewExecutor(st, cache, opts) }}
	return v
}

// pin takes a read lease on the version. Callers pin under e.mu (read
// side), so a pin can never race a publish: a version observed as current
// is pinned before it can be retired.
func (v *storeVersion) pin() { v.pins.Add(1) }

// unpin releases a read lease, freeing the version's resources when it
// was retired and this was the last reader.
func (v *storeVersion) unpin() {
	if v.pins.Add(-1) == 0 && v.retired.Load() {
		v.releaseNow()
	}
}

// retire marks the version superseded. Called under e.mu (write side) by
// publishLocked, mutually exclusive with pinning.
func (v *storeVersion) retire() {
	v.engine.retiredLive.Add(1)
	v.retired.Store(true)
	if v.pins.Load() == 0 {
		v.releaseNow()
	}
}

// releaseNow frees the version's hold on shared resources exactly once.
// Both the last unpin and a pin-free retire can race into it; the Once
// arbitrates.
func (v *storeVersion) releaseNow() {
	v.release.Do(func() {
		v.engine.retiredLive.Add(-1)
		v.mapped.drop()
	})
}

// releaseVersionPin is the runtime cleanup hook for Results that hold a
// version pin for lazy explanations (it must not capture the Result).
func releaseVersionPin(v *storeVersion) { v.unpin() }

// currentVersion pins and returns the engine's published store version,
// initialising one lazily for engines assembled without Freeze
// (package-internal tests).
func (e *Engine) currentVersion() *storeVersion {
	e.mu.RLock()
	v := e.ver
	if v != nil {
		v.pin()
	}
	e.mu.RUnlock()
	if v != nil {
		return v
	}
	e.mu.Lock()
	if e.ver == nil {
		e.ver = newStoreVersion(e, e.st, e.st, nil, nil, 0)
	}
	v = e.ver
	v.pin()
	e.mu.Unlock()
	return v
}

// publishLocked installs v as the engine's current version and retires
// the predecessor. Callers hold e.mu.
func (e *Engine) publishLocked(v *storeVersion) {
	old := e.ver
	e.ver = v
	e.st = v.st
	if old != nil {
		old.retire()
	}
}

// MemoryStats reports the engine's storage residency: whether the base
// segment is memory-mapped (and how large the mapping is), the live
// delta overlay's size, and the compaction/retirement counters.
type MemoryStats struct {
	// Epoch is the current version's snapshot epoch (0 for in-memory
	// engines).
	Epoch uint64
	// Mapped reports that the base store serves from a memory-mapped
	// segment; MappedBytes is the mapping size.
	Mapped      bool
	MappedBytes int
	// DeltaTriples and DeltaOverrides size the live ingest overlay (new
	// facts and higher-confidence replacements of base facts).
	DeltaTriples   int
	DeltaOverrides int
	// Compactions counts delta-into-base folds since construction.
	Compactions uint64
	// PinnedVersions counts retired store versions still held alive by
	// in-flight queries or unreleased Results.
	PinnedVersions int64
	// IngestedFacts counts facts applied by IngestFacts since
	// construction (rejected lower-confidence duplicates excluded).
	IngestedFacts uint64
}

// MemoryStats returns a snapshot of the engine's storage residency.
func (e *Engine) MemoryStats() MemoryStats {
	v := e.currentVersion()
	defer v.unpin()
	return MemoryStats{
		Epoch:          v.epoch,
		Mapped:         v.base.Mapped(),
		MappedBytes:    v.mapped.bytes(),
		DeltaTriples:   v.delta.Rows(),
		DeltaOverrides: v.delta.Overrides(),
		Compactions:    e.compactions.Load(),
		PinnedVersions: e.retiredLive.Load(),
		IngestedFacts:  e.ingestedFacts.Load(),
	}
}
