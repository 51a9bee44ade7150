package trinit

// Live ingest into a frozen engine.
//
// The pre-Freeze mutation APIs build the base store; IngestFacts extends
// a frozen engine without unfreezing it. Each batch is interned into
// clones of the published dictionary and provenance table, folded into an
// immutable delta segment over the (possibly memory-mapped) base, logged
// to the write-ahead log on durable engines, and published as a new store
// version. In-flight queries keep the version they pinned; new queries
// see the batch atomically. Semantics match the pre-Freeze Add path
// exactly: a fact whose (S, P, O) key exists replaces the stored copy
// only at strictly higher confidence, so an engine that ingests a batch
// live is query-for-query identical to one that ingested it before
// Freeze.
//
// Compact folds the delta back into a single base — in memory for
// ephemeral engines, through Checkpoint (next-epoch segment, WAL
// rotation, remap) for durable ones. With Options.CompactAfter set, a
// background compaction triggers automatically once the delta outgrows
// the threshold.

import (
	"fmt"

	"trinit/internal/rdf"
	"trinit/internal/serial"
	"trinit/internal/store"
)

// Fact is one triple for live ingest into a frozen engine (IngestFacts).
// The zero-value interpretation is a curated KG fact between resources at
// confidence 1, mirroring AddKGFact.
type Fact struct {
	// Subject, Predicate and Object are term surface texts.
	Subject, Predicate, Object string
	// XKG marks an extracted token fact, mirroring AddTokenTriple: the
	// predicate is a token phrase, subject and object resolve to known
	// resources when the dictionary holds them and token phrases
	// otherwise, and Confidence applies.
	XKG bool
	// LiteralObject marks the object a literal value (KG facts only),
	// mirroring AddKGLiteral.
	LiteralObject bool
	// Confidence is the extraction confidence of an XKG fact, in (0, 1].
	// Ignored for KG facts (always 1).
	Confidence float64
	// Doc and Sentence attach provenance to an XKG fact.
	Doc, Sentence string
}

// internFact maps one fact onto an interned triple, mirroring the
// pre-Freeze AddKGFact/AddKGLiteral/AddTokenTriple term handling.
func internFact(dict *rdf.Dict, prov *rdf.ProvTable, f Fact) (rdf.Triple, error) {
	if !f.XKG {
		o := rdf.Resource(f.Object)
		if f.LiteralObject {
			o = rdf.Literal(f.Object)
		}
		return rdf.Triple{
			S:      dict.Intern(rdf.Resource(f.Subject)),
			P:      dict.Intern(rdf.Resource(f.Predicate)),
			O:      dict.Intern(o),
			Source: rdf.SourceKG,
			Conf:   1,
			Prov:   rdf.NoProv,
		}, nil
	}
	if f.Confidence <= 0 || f.Confidence > 1 {
		return rdf.Triple{}, fmt.Errorf("confidence %v outside (0, 1]", f.Confidence)
	}
	pv := rdf.NoProv
	if f.Doc != "" || f.Sentence != "" {
		pv = prov.Add(rdf.Prov{Doc: f.Doc, Sentence: f.Sentence})
	}
	s := rdf.Token(f.Subject)
	if _, ok := dict.Lookup(rdf.Resource(f.Subject)); ok {
		s = rdf.Resource(f.Subject)
	}
	o := rdf.Token(f.Object)
	if _, ok := dict.Lookup(rdf.Resource(f.Object)); ok {
		o = rdf.Resource(f.Object)
	}
	return rdf.Triple{
		S:      dict.Intern(s),
		P:      dict.Intern(rdf.Token(f.Predicate)),
		O:      dict.Intern(o),
		Source: rdf.SourceXKG,
		Conf:   f.Confidence,
		Prov:   pv,
	}, nil
}

// IngestFacts applies a batch of facts to a frozen engine and returns how
// many changed state (new keys plus accepted higher-confidence
// replacements; lower-confidence duplicates are dropped, as in the
// pre-Freeze Add path). On durable engines the batch is written ahead to
// the log before publication. Queries never block on ingest: in-flight
// ones keep the store version they started with, later ones see the whole
// batch. Sharded engines (Options.Shards > 1) do not support live ingest.
func (e *Engine) IngestFacts(facts []Fact) (int, error) {
	if len(facts) == 0 {
		return 0, nil
	}
	d, unlock := e.durLocked()
	defer unlock()
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.mu.RLock()
	frozen, group := e.frozen, e.group
	e.mu.RUnlock()
	if !frozen {
		return 0, fmt.Errorf("%w: IngestFacts requires a frozen engine (use AddKGFact/AddTokenTriple before Freeze)", ErrNotFrozen)
	}
	if group != nil {
		return 0, fmt.Errorf("trinit: live ingest is not supported on sharded engines (Reshard(1) first)")
	}
	cur := e.currentVersion()
	defer cur.unpin()

	// Clone-on-write: readers of the published version share its
	// dictionary and provenance table, so the batch interns into clones
	// that become visible only with the publish.
	dict := cur.st.Dict().Clone()
	prov := cur.st.Prov().Clone()
	triples := make([]rdf.Triple, 0, len(facts))
	for i, f := range facts {
		t, err := internFact(dict, prov, f)
		if err != nil {
			return 0, fmt.Errorf("trinit: fact %d: %w", i, err)
		}
		triples = append(triples, t)
	}
	delta, applied, err := store.BuildDelta(cur.base, dict, cur.delta, triples)
	if err != nil {
		return 0, fmt.Errorf("trinit: %w", err)
	}
	if len(applied) == 0 {
		return 0, nil
	}
	if d != nil {
		// Write-ahead: the batch is published only once its records are
		// durable. Terms go by value — recovery replays them into a
		// dictionary that may have grown differently.
		recs := make([]serial.WALRecord, len(applied))
		for i, t := range applied {
			pv := prov.Get(t.Prov)
			recs[i] = serial.WALRecord{
				Op:       serial.WALTriple,
				S:        dict.Term(t.S),
				P:        dict.Term(t.P),
				O:        dict.Term(t.O),
				Source:   t.Source,
				Conf:     t.Conf,
				Doc:      pv.Doc,
				Sentence: pv.Sentence,
			}
		}
		if err := d.append(recs...); err != nil {
			return 0, err
		}
	}
	overlay := cur.base.WithDelta(delta, dict, prov)
	e.mu.Lock()
	e.publishLocked(newStoreVersion(e, overlay, cur.base, delta, cur.mapped, cur.epoch))
	e.mu.Unlock()
	e.ingestedFacts.Add(uint64(len(applied)))

	if n := e.opts.CompactAfter; n > 0 && delta.Rows() >= n && e.compacting.CompareAndSwap(false, true) {
		go func() {
			defer e.compacting.Store(false)
			// Background fold; a failure surfaces through the durability
			// layer's sticky error on the next durable mutation.
			e.Compact() //nolint:errcheck
		}()
	}
	return len(applied), nil
}

// materializeStore folds a delta overlay into a single frozen heap store
// with identical triple IDs, dictionary and provenance table — the store
// an engine that ingested the same facts before Freeze would hold.
func materializeStore(src *store.Store) *store.Store {
	m := store.New(src.Dict(), src.Prov())
	for i, n := 0, src.Len(); i < n; i++ {
		m.Add(src.Triple(store.ID(i)))
	}
	m.Freeze()
	return m
}

// Compact folds the live-ingest delta back into a single base store and
// publishes it. On durable engines it delegates to Checkpoint, which
// writes the merged image as the next-epoch segment, rotates the log and
// remaps the fresh segment. A no-op when there is nothing to fold.
func (e *Engine) Compact() error {
	if e.dur.Load() != nil {
		return e.Checkpoint()
	}
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	return e.compactInMemory()
}

// compactInMemory publishes a merged heap store over the current overlay.
// Callers hold e.ingestMu.
func (e *Engine) compactInMemory() error {
	e.mu.RLock()
	frozen := e.frozen
	e.mu.RUnlock()
	if !frozen {
		return fmt.Errorf("%w: Compact requires a frozen engine", ErrNotFrozen)
	}
	cur := e.currentVersion()
	defer cur.unpin()
	if cur.delta.Rows()+cur.delta.Overrides() == 0 {
		return nil
	}
	merged := materializeStore(cur.st)
	e.mu.Lock()
	e.publishLocked(newStoreVersion(e, merged, merged, nil, nil, cur.epoch))
	e.mu.Unlock()
	e.compactions.Add(1)
	return nil
}
