package trinit

// Durability: crash-safe persistence of the engine behind a data
// directory.
//
// A data directory holds at most two files — snapshot.trnt, a
// checksummed binary segment image of the frozen store plus rules at one
// epoch, and wal.log, the write-ahead delta log of everything that
// happened since (triple ingest before Freeze, rule edits after it).
// Open loads the snapshot, replays the log, and verifies every checksum;
// Checkpoint folds the log into a fresh snapshot via temp-file + fsync +
// atomic rename.
//
// The protocol invariants:
//
//   - A mutation is acknowledged only after its WAL record is fsynced;
//     rule mutations append before publishing in memory, batch ingest
//     appends before returning to the caller.
//   - WAL records carry the epoch they apply on top of. Recovery applies
//     records at the snapshot's epoch, skips older ones (a crash between
//     publishing a new snapshot and rotating the log leaves both — the
//     snapshot already contains those deltas), and rejects newer ones as
//     corruption.
//   - Durability fails stop: after any write-ahead or checkpoint error
//     the on-disk state may no longer mirror memory, so the engine
//     refuses further durable mutations with the original error and the
//     directory must be reopened. Recovery then lands on the last
//     acknowledged consistent state.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"trinit/internal/faultinject"
	"trinit/internal/rdf"
	"trinit/internal/relax"
	"trinit/internal/serial"
	"trinit/internal/store"
)

const (
	snapshotFile = "snapshot.trnt"
	walFile      = "wal.log"
)

// ErrCorrupt is the typed error for damaged on-disk state: checksum
// mismatches, truncated snapshots, mid-file WAL corruption, or log
// records inconsistent with the snapshot they accompany. It aliases
// internal/serial's sentinel so errors.Is works across the API boundary.
var ErrCorrupt = serial.ErrCorrupt

// durability is the engine's attachment to a data directory.
type durability struct {
	mu    sync.Mutex
	dir   string
	wal   *serial.WAL
	epoch uint64
	// err is sticky: the first durability failure. Once set, disk and
	// memory may diverge, so every later durable mutation fails with it.
	err error
}

// append stamps the records with the current epoch and writes them ahead
// of publication. Callers hold d.mu.
func (d *durability) append(recs ...serial.WALRecord) error {
	if d.err != nil {
		return fmt.Errorf("trinit: durability disabled by earlier failure: %w", d.err)
	}
	for i := range recs {
		recs[i].Epoch = d.epoch
	}
	if err := d.wal.Append(recs...); err != nil {
		d.err = err
		return fmt.Errorf("trinit: write-ahead log append: %w", err)
	}
	return nil
}

// HasData reports whether dir already holds a snapshot or write-ahead
// log — i.e. whether Open would recover state rather than start empty.
// Callers bootstrapping a directory (build an engine, Persist it) use
// this to decide between the two paths.
func HasData(dir string) bool {
	for _, name := range []string{snapshotFile, walFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
	}
	return false
}

// RecoveryInfo reports what Open found and did.
type RecoveryInfo struct {
	// SnapshotEpoch is the loaded snapshot's epoch; 0 means the
	// directory held no snapshot yet.
	SnapshotEpoch uint64
	// SnapshotBytes is the snapshot file size (0 without a snapshot).
	SnapshotBytes int64
	// IndexesRebuilt reports that the snapshot predated the current
	// index format, so the permutation indexes were re-sorted from the
	// triple column instead of loaded eagerly.
	IndexesRebuilt bool
	// Mapped reports that the snapshot is served zero-copy from a
	// memory-mapped segment (v2 format, mappable host) rather than
	// decoded onto the heap; MappedBytes is the mapping size.
	Mapped      bool
	MappedBytes int
	// WALReplayed counts delta-log records applied on top of the
	// snapshot; WALSkipped counts stale records from older epochs.
	WALReplayed, WALSkipped int
	// TornBytes counts the bytes of a torn WAL tail that recovery
	// truncated away (an interrupted append; its mutation was never
	// acknowledged).
	TornBytes int
	// LoadTime is the wall-clock duration of Open.
	LoadTime time.Duration
}

// Open loads the engine persisted in dir, creating the directory if
// needed. With a snapshot present the store loads frozen and the delta
// log replays rule edits on top; without one, the log replays triple
// ingest into an unfrozen engine that may keep ingesting. Every
// checksum is verified; damage surfaces as an error wrapping ErrCorrupt,
// never as a silently partial store. Pass nil opts for defaults.
//
// The returned engine appends its mutations to dir's write-ahead log;
// call Checkpoint to fold the log into a fresh snapshot and Close when
// done.
func Open(dir string, opts *Options) (*Engine, *RecoveryInfo, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	// Sweep temp files: a crash mid-checkpoint leaves snapshot.trnt.tmp
	// behind, and the next checkpoint would truncate it anyway.
	if stale, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, p := range stale {
			os.Remove(p)
		}
	}

	info := &RecoveryInfo{}
	var e *Engine
	snapPath := filepath.Join(dir, snapshotFile)
	if _, err := os.Stat(snapPath); err == nil {
		snap, mapped, err := openSnapshot(snapPath, opts)
		if err != nil {
			return nil, nil, err
		}
		e = engineFromSnapshot(snap, mapped, opts)
		info.SnapshotEpoch = snap.Epoch
		info.SnapshotBytes = snap.Bytes
		info.IndexesRebuilt = snap.IndexesRebuilt
		info.Mapped = mapped != nil
		info.MappedBytes = mapped.MappedBytes()
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, err
	} else {
		e = New(opts)
	}

	wal, replay, err := serial.OpenWAL(filepath.Join(dir, walFile))
	if err != nil {
		return nil, nil, err
	}
	info.TornBytes = replay.TornBytes
	var pendingIngest []serial.WALRecord
	for _, rec := range replay.Records {
		switch {
		case rec.Epoch < info.SnapshotEpoch:
			// Folded into the snapshot already: a crash hit between the
			// snapshot rename and the log rotation.
			info.WALSkipped++
			continue
		case rec.Epoch > info.SnapshotEpoch:
			wal.Close()
			return nil, nil, fmt.Errorf("%w: delta-log record at epoch %d, snapshot at epoch %d",
				ErrCorrupt, rec.Epoch, info.SnapshotEpoch)
		}
		if rec.Op == serial.WALTriple && e.frozen {
			// Live-ingest records, appended after the snapshot froze:
			// replayed as one delta batch once the rule records are in, so
			// recovery rebuilds the same overlay IngestFacts published.
			pendingIngest = append(pendingIngest, rec)
			info.WALReplayed++
			continue
		}
		if err := e.applyWALRecord(rec); err != nil {
			wal.Close()
			return nil, nil, err
		}
		info.WALReplayed++
	}
	if len(pendingIngest) > 0 {
		if err := e.replayIngest(pendingIngest); err != nil {
			wal.Close()
			return nil, nil, err
		}
	}
	if !e.frozen {
		// Mirror further batch ingest into the log (replayed rows are
		// drained away first so they are not logged twice).
		e.st.DrainAdds()
		e.st.TrackAdds(true)
	}
	e.dur.Store(&durability{dir: dir, wal: wal, epoch: info.SnapshotEpoch})
	info.LoadTime = time.Since(start)
	return e, info, nil
}

// openSnapshot opens the segment at path mapped when possible (and not
// disabled by Options.NoMapSegments), falling back to the eager decoder
// for structurally unmappable files. Damage surfaces as an error either
// way — a corrupt file must never silently fall back to decoding the
// same bad bytes.
func openSnapshot(path string, opts *Options) (*serial.Snapshot, *serial.MappedSnapshot, error) {
	if opts == nil || !opts.NoMapSegments {
		m, err := serial.OpenSnapshotMapped(path)
		switch {
		case err == nil:
			return &m.Snapshot, m, nil
		case errors.Is(err, serial.ErrNotMappable):
			// v1 segment, stale index version, or unmappable host: the
			// eager decoder handles all of these.
		default:
			return nil, nil, err
		}
	}
	snap, err := serial.ReadSnapshotFile(path)
	if err != nil {
		return nil, nil, err
	}
	return snap, nil, nil
}

// engineFromSnapshot assembles a frozen, queryable engine around a
// decoded or mapped snapshot (mapped is nil for heap-decoded ones).
func engineFromSnapshot(snap *serial.Snapshot, mapped *serial.MappedSnapshot, opts *Options) *Engine {
	o := opts.withDefaults()
	e := &Engine{
		opts:      o,
		st:        snap.Store,
		admit:     newAdmission(o.AdmissionCapacity, o.AdmissionQueue),
		defBudget: o.DefaultBudget,
	}
	e.setRules(snap.Rules)
	e.initQueryPipeline(newMappedRef(mapped), snap.Epoch)
	e.frozen = true
	return e
}

// replayIngest rebuilds the live-ingest delta overlay from the replayed
// WAL records during Open. The engine is single-owner here, so the
// records intern straight into the snapshot store's dictionary and the
// batch is not re-logged — it is already in the log being replayed.
func (e *Engine) replayIngest(recs []serial.WALRecord) error {
	cur := e.currentVersion()
	defer cur.unpin()
	dict, prov := cur.st.Dict(), cur.st.Prov()
	triples := make([]rdf.Triple, len(recs))
	for i, rec := range recs {
		pv := rdf.NoProv
		if rec.Doc != "" || rec.Sentence != "" {
			pv = prov.Add(rdf.Prov{Doc: rec.Doc, Sentence: rec.Sentence})
		}
		triples[i] = rdf.Triple{
			S:      dict.Intern(rec.S),
			P:      dict.Intern(rec.P),
			O:      dict.Intern(rec.O),
			Source: rec.Source,
			Conf:   rec.Conf,
			Prov:   pv,
		}
	}
	delta, applied, err := store.BuildDelta(cur.base, dict, nil, triples)
	if err != nil {
		return fmt.Errorf("%w: delta-log ingest replay: %v", ErrCorrupt, err)
	}
	if len(applied) == 0 {
		return nil
	}
	overlay := cur.base.WithDelta(delta, dict, prov)
	e.mu.Lock()
	e.publishLocked(newStoreVersion(e, overlay, cur.base, delta, cur.mapped, cur.epoch))
	e.mu.Unlock()
	e.ingestedFacts.Add(uint64(len(applied)))
	return nil
}

// applyWALRecord replays one delta-log record during Open. The engine is
// single-owner here, so no locks are taken.
func (e *Engine) applyWALRecord(rec serial.WALRecord) error {
	switch rec.Op {
	case serial.WALTriple:
		if e.frozen {
			return fmt.Errorf("%w: triple delta-log record at the snapshot's epoch (the store froze before the snapshot)", ErrCorrupt)
		}
		prov := rdf.NoProv
		if rec.Doc != "" || rec.Sentence != "" {
			prov = e.st.Prov().Add(rdf.Prov{Doc: rec.Doc, Sentence: rec.Sentence})
		}
		e.st.AddFact(rec.S, rec.P, rec.O, rec.Source, rec.Conf, prov)
	case serial.WALRuleAdd:
		r, err := relax.ParseRule(rec.RuleID, rec.RuleText, rec.RuleWeight, rec.RuleOrigin)
		if err != nil {
			return fmt.Errorf("%w: delta-log rule %q: %v", ErrCorrupt, rec.RuleID, err)
		}
		e.setRules(append(e.rules, r))
	case serial.WALRuleRemove:
		e.setRules(slices.DeleteFunc(slices.Clone(e.rules), func(r *relax.Rule) bool { return r.ID == rec.RuleID }))
	case serial.WALRuleClear:
		e.setRules(nil)
	default:
		return fmt.Errorf("%w: unknown delta-log op %d", ErrCorrupt, rec.Op)
	}
	return nil
}

// Persist attaches a durable data directory to a frozen in-memory engine
// (demo, synthetic, or TNT-loaded): it writes the initial snapshot at
// epoch 1 and opens a fresh write-ahead log. The directory must not
// already hold a snapshot or log — reopen those with Open instead.
//
// Sharded engines persist exactly like unsharded ones: the snapshot
// always images the retained full store, never the per-shard partitions,
// so the on-disk format is independent of Options.Shards and a directory
// written at one shard count reopens at any other (partitioning is a
// deterministic function of the store and N, recomputed by Open). Use
// SaveShardSnapshots for per-shard images.
func (e *Engine) Persist(dir string) error {
	if e.dur.Load() != nil {
		return fmt.Errorf("trinit: engine is already durable")
	}
	e.mu.RLock()
	frozen, rules := e.frozen, e.rules
	e.mu.RUnlock()
	if !frozen {
		return fmt.Errorf("%w: Persist requires a frozen engine", ErrNotFrozen)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range []string{snapshotFile, walFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return fmt.Errorf("trinit: %s already exists in %s (use Open)", name, dir)
		}
	}
	if err := serial.WriteSnapshotFile(filepath.Join(dir, snapshotFile), e.snapshotStore(), rules, 1); err != nil {
		return err
	}
	wal, _, err := serial.OpenWAL(filepath.Join(dir, walFile))
	if err != nil {
		return err
	}
	e.dur.Store(&durability{dir: dir, wal: wal, epoch: 1})
	return nil
}

// Checkpoint folds the write-ahead log into a fresh snapshot at the next
// epoch: the snapshot is written atomically (temp file, fsync, rename,
// directory fsync), then the log is rotated. A crash between the rename
// and the rotation is safe — recovery skips the log's now-stale records
// by epoch. The engine must be frozen and durable. On failure the
// engine's durability fails stop (see the package invariants): the
// directory still holds a consistent state, but it must be reopened.
// Like Persist, Checkpoint snapshots the retained full store, so its
// output is identical whether or not the engine runs sharded.
func (e *Engine) Checkpoint() error {
	d := e.dur.Load()
	if d == nil {
		return fmt.Errorf("trinit: engine has no data directory (use Open or Persist)")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	if d.err != nil {
		return fmt.Errorf("trinit: durability disabled by earlier failure: %w", d.err)
	}
	e.mu.RLock()
	frozen, rules := e.frozen, e.rules
	e.mu.RUnlock()
	if !frozen {
		return fmt.Errorf("%w: Checkpoint requires a frozen engine", ErrNotFrozen)
	}
	// Every published version is immutable and the rules slice is
	// copy-on-write, so the snapshot encodes a consistent view without
	// holding e.mu; concurrent rule mutations serialize behind d.mu, and
	// concurrent ingest behind ingestMu. A live delta overlay is folded
	// into a merged image first — the snapshot is always one segment.
	cur := e.currentVersion()
	defer cur.unpin()
	st := cur.st
	hadDelta := cur.delta.Rows()+cur.delta.Overrides() > 0
	if hadDelta {
		st = materializeStore(st)
	}
	snapPath := filepath.Join(d.dir, snapshotFile)
	if err := serial.WriteSnapshotFile(snapPath, st, rules, d.epoch+1); err != nil {
		// The rename may or may not have happened; either way the
		// on-disk state is consistent, but continuing to append at the
		// old epoch could lose acknowledged mutations if it did.
		d.err = err
		return err
	}
	d.epoch++
	if err := d.wal.Rotate(); err != nil {
		d.err = err
		return err
	}
	// The rotation truncated the log in place and fsynced the file, but
	// only a directory fsync makes the truncation's metadata durable on
	// every filesystem; without it, a crash can resurrect pre-rotation
	// records whose epoch now collides with post-checkpoint appends.
	if err := syncDir(d.dir); err != nil {
		d.err = err
		return err
	}
	if hadDelta {
		// Publish the folded image so queries stop paying the two-source
		// merge — remapped zero-copy from the fresh segment when possible,
		// the merged heap store otherwise.
		newSt := st
		var mapped *mappedRef
		if !e.opts.NoMapSegments {
			if m, err := serial.OpenSnapshotMapped(snapPath); err == nil {
				newSt = m.Store
				mapped = newMappedRef(m)
			}
		}
		e.mu.Lock()
		e.publishLocked(newStoreVersion(e, newSt, newSt, nil, mapped, d.epoch))
		e.mu.Unlock()
		e.compactions.Add(1)
	}
	return nil
}

// syncDir fsyncs a directory so renames and truncations inside it are
// durable. The faultinject site simulates the disk (or process) dying at
// exactly this point.
func syncDir(dir string) error {
	if err := faultinject.FireErr(faultinject.SiteFsync, "wal-dir"); err != nil {
		return err
	}
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Close detaches the engine from its data directory, closing the
// write-ahead log. The engine stays queryable in memory. Close returns
// the sticky durability error, if any, so a fail-stopped engine cannot
// shut down looking healthy.
func (e *Engine) Close() error {
	d := e.dur.Swap(nil)
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.wal.Close()
	if d.err != nil {
		return d.err
	}
	return err
}

// durLocked acquires the durability lock when the engine is durable and
// returns (d, unlock). Mutating methods take it before e.mu — the lock
// order that lets Checkpoint hold d.mu across a long snapshot write
// while queries keep reading — and release it after publishing.
func (e *Engine) durLocked() (*durability, func()) {
	d := e.dur.Load()
	if d == nil {
		return nil, func() {}
	}
	d.mu.Lock()
	return d, d.mu.Unlock
}

// logDrainedAdds mirrors the store rows inserted or replaced by the
// just-finished batch into the write-ahead log. Callers hold e.mu and
// d.mu. The rows are already applied in memory: a failure here therefore
// fails stop (sticky error) and the caller surfaces it.
func (e *Engine) logDrainedAdds(d *durability) error {
	ids := e.st.DrainAdds()
	if len(ids) == 0 {
		return nil
	}
	dict, prov := e.st.Dict(), e.st.Prov()
	recs := make([]serial.WALRecord, len(ids))
	for i, id := range ids {
		t := e.st.Triple(id)
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
	return d.append(recs...)
}

// ruleAddRecord encodes a rule for the write-ahead log, in the same
// re-parseable text form the snapshot's rule section uses.
func ruleAddRecord(r *relax.Rule) serial.WALRecord {
	return serial.WALRecord{
		Op:         serial.WALRuleAdd,
		RuleID:     r.ID,
		RuleText:   serial.RuleText(r),
		RuleWeight: r.Weight,
		RuleOrigin: r.Origin,
	}
}

// SaveSnapshot writes a standalone binary snapshot of the frozen engine
// (store + rules) to path, atomically. Standalone snapshots always carry
// epoch 1; they are complete images with no accompanying delta log, made
// for the REPL's .save/.load and for benchmarks. Restore with
// LoadSnapshot.
func (e *Engine) SaveSnapshot(path string) error {
	e.mu.RLock()
	frozen, rules := e.frozen, e.rules
	e.mu.RUnlock()
	if !frozen {
		return fmt.Errorf("%w: SaveSnapshot requires a frozen engine", ErrNotFrozen)
	}
	return serial.WriteSnapshotFile(path, e.snapshotStore(), rules, 1)
}

// snapshotStore returns the store to image in a snapshot: the current
// version's store, with any live delta overlay folded into a merged heap
// store first — a snapshot is always one self-contained segment.
func (e *Engine) snapshotStore() *store.Store {
	cur := e.currentVersion()
	defer cur.unpin()
	if cur.delta.Rows()+cur.delta.Overrides() > 0 {
		return materializeStore(cur.st)
	}
	return cur.st
}

// SaveShardSnapshots writes one standalone snapshot per shard into dir
// (shard-000.trnt, shard-001.trnt, …) and returns the paths written.
// Each file is a complete engine image — the shard's store, the shared
// (replicated) dictionary and provenance table, and the full rule set —
// loadable with LoadSnapshot: the bootstrap file a shard node of a
// networked deployment would receive. The engine must be frozen.
//
// On an unsharded engine the single shard-000.trnt images the full
// store and is byte-identical to SaveSnapshot's output; a 1-shard
// engine produces the same bytes, because shard 0 of a 1-shard
// partition replays the source store's exact triple sequence.
func (e *Engine) SaveShardSnapshots(dir string) ([]string, error) {
	e.mu.RLock()
	frozen, rules, group := e.frozen, e.rules, e.group
	e.mu.RUnlock()
	if !frozen {
		return nil, fmt.Errorf("%w: SaveShardSnapshots requires a frozen engine", ErrNotFrozen)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var stores []*store.Store
	if group != nil {
		for i := 0; i < group.Shards(); i++ {
			stores = append(stores, group.Store(i))
		}
	} else {
		stores = []*store.Store{e.snapshotStore()}
	}
	paths := make([]string, 0, len(stores))
	for i, st := range stores {
		p := filepath.Join(dir, fmt.Sprintf("shard-%03d.trnt", i))
		if err := serial.WriteSnapshotFile(p, st, rules, 1); err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// LoadSnapshot restores a frozen, queryable engine from a snapshot file
// written by SaveSnapshot (or from a data directory's snapshot.trnt,
// ignoring any delta log next to it). v2 segments are served zero-copy
// from a memory mapping when the host allows it (disable with
// Options.NoMapSegments); v1 segments decode eagerly. Pass nil opts for
// defaults.
func LoadSnapshot(path string, opts *Options) (*Engine, error) {
	snap, mapped, err := openSnapshot(path, opts)
	if err != nil {
		return nil, err
	}
	return engineFromSnapshot(snap, mapped, opts), nil
}
