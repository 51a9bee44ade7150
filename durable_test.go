package trinit

// Durability contract, from round-trip losslessness to crash recovery:
//
//   - Persist/Open and SaveSnapshot/LoadSnapshot reproduce the engine
//     exactly — Stats, Predicates, rules, token-index resolutions, and
//     query answers byte for byte;
//   - pre-freeze ingest and post-freeze rule edits are write-ahead
//     logged, so an engine killed without Close reopens to every
//     acknowledged mutation and nothing else;
//   - TestCrashRecoveryDifferential kills the engine at every I/O fault
//     point (torn append, short snapshot write, failed fsync, kill
//     before/after the rename) and proves the reopened engine answers
//     the full 70-query workload byte-identically to a never-crashed
//     oracle — or refuses with ErrCorrupt, never a silent partial store.
//
// Run with -race; CI gates on the differential by name.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"trinit/internal/faultinject"
	"trinit/internal/serial"
	"trinit/internal/store"
)

func openDir(t *testing.T, dir string) (*Engine, *RecoveryInfo) {
	t.Helper()
	e, info, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return e, info
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// sameEngineState asserts two engines are observationally identical:
// stats, predicate statistics, rules, and token-index resolutions.
func sameEngineState(t *testing.T, want, got *Engine) {
	t.Helper()
	if want.Stats() != got.Stats() {
		t.Fatalf("Stats differ:\n want %+v\n got  %+v", want.Stats(), got.Stats())
	}
	wp, gp := want.st.Predicates(), got.st.Predicates()
	if len(wp) != len(gp) {
		t.Fatalf("predicate stats: %d vs %d entries", len(wp), len(gp))
	}
	for i := range wp {
		if wp[i] != gp[i] {
			t.Fatalf("predicate stat %d differs: %+v vs %+v", i, wp[i], gp[i])
		}
	}
	wr, gr := want.Rules(), got.Rules()
	if len(wr) != len(gr) {
		t.Fatalf("rules: %d vs %d", len(wr), len(gr))
	}
	for i := range wr {
		if wr[i] != gr[i] {
			t.Fatalf("rule %d differs: %+v vs %+v", i, wr[i], gr[i])
		}
	}
	// Token-index resolutions: the same phrase resolves to the same
	// scored list on both sides.
	for _, probe := range []string{"lectured at", "won", "institute", "advisor"} {
		ws := want.st.MatchToken(probe, store.MaskAny, 0.1, 16)
		gs := got.st.MatchToken(probe, store.MaskAny, 0.1, 16)
		if len(ws) != len(gs) {
			t.Fatalf("MatchToken(%q): %d vs %d results", probe, len(ws), len(gs))
		}
		for i := range ws {
			if ws[i] != gs[i] {
				t.Fatalf("MatchToken(%q) result %d differs: %+v vs %+v", probe, i, ws[i], gs[i])
			}
		}
	}
}

// TestSnapshotRoundTripLossless: the synthetic engine — the largest
// store the test suite builds, with mined rules and a corpus-built
// token index — survives SaveSnapshot/LoadSnapshot with no observable
// difference, including byte-identical answers on its workload.
func TestSnapshotRoundTripLossless(t *testing.T) {
	e, queries := syntheticWorkload(t)
	path := filepath.Join(t.TempDir(), "synthetic.snap")
	if err := e.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshot(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameEngineState(t, e, back)
	for i, q := range queries {
		if i >= 20 {
			break
		}
		a, err1 := e.QueryContext(context.Background(), q.Text)
		b, err2 := back.QueryContext(context.Background(), q.Text)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", q.ID, err1, err2)
		}
		if answersJSON(t, a) != answersJSON(t, b) {
			t.Fatalf("%s: answers differ after snapshot round trip", q.ID)
		}
	}
}

// TestPersistOpenRoundTrip: a frozen in-memory engine attaches to a
// data directory and reopens identically.
func TestPersistOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	demo := NewDemoEngine()
	if err := demo.Persist(dir); err != nil {
		t.Fatal(err)
	}
	if err := demo.Persist(dir); err == nil {
		t.Fatal("second Persist into the same directory accepted")
	}
	if err := demo.Close(); err != nil {
		t.Fatal(err)
	}

	back, info := openDir(t, dir)
	defer back.Close()
	if info.SnapshotEpoch != 1 || info.WALReplayed != 0 || info.TornBytes != 0 {
		t.Fatalf("recovery info: %+v", info)
	}
	sameEngineState(t, NewDemoEngine(), back)
	res, err := back.QueryContext(context.Background(), "AlbertEinstein hasAdvisor ?x")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 || res.Answers[0].Bindings["x"] != "AlfredKleiner" {
		t.Fatalf("recovered engine lost the demo answer: %+v", res.Answers)
	}
}

// TestSnapshotUnsupportedVersionRefused: a segment at the current format
// and index version is the only on-disk form any reader accepts. A
// retired v1 header and a current header stamped with another index
// version (each with a valid header checksum, so only the version is
// wrong) are refused by the eager decoder, the mapped open, LoadSnapshot
// and Open, mapped or not, with ErrCorrupt — never ErrNotMappable, which
// would hand the bytes to another decoder, and never a partial engine.
func TestSnapshotUnsupportedVersionRefused(t *testing.T) {
	valid := filepath.Join(t.TempDir(), snapshotFile)
	if err := NewDemoEngine().SaveSnapshot(valid); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(valid)
	if err != nil {
		t.Fatal(err)
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	v1 := bytes.Clone(data) // v1's 28-byte header keeps its CRC at byte 24
	binary.LittleEndian.PutUint32(v1[8:], 1)
	binary.LittleEndian.PutUint32(v1[24:], crc32.Checksum(v1[:24], castagnoli))
	staleIndex := bytes.Clone(data)
	binary.LittleEndian.PutUint32(staleIndex[12:], store.IndexFormatVersion+1)
	binary.LittleEndian.PutUint32(staleIndex[28:], crc32.Checksum(staleIndex[:28], castagnoli))

	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"v1", v1, "unsupported snapshot format version 1"},
		{"index-version", staleIndex, fmt.Sprintf("unsupported index format version %d", store.IndexFormatVersion+1)},
	} {
		refused := func(reader string, err error) {
			t.Helper()
			if !errors.Is(err, ErrCorrupt) || errors.Is(err, serial.ErrNotMappable) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s %s: err=%v, want ErrCorrupt %q", c.name, reader, err, c.want)
			}
		}
		if snap, err := serial.DecodeSnapshot(c.data); snap != nil {
			t.Fatalf("%s DecodeSnapshot accepted the file", c.name)
		} else {
			refused("DecodeSnapshot", err)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, snapshotFile)
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if m, err := serial.OpenSnapshotMapped(path); m != nil {
			m.Close()
			t.Fatalf("%s OpenSnapshotMapped accepted the file", c.name)
		} else if !strings.Contains(err.Error(), "no mmap on this platform") {
			refused("OpenSnapshotMapped", err)
		}
		for _, opts := range []*Options{nil, {NoMapSegments: true}} {
			if e, err := LoadSnapshot(path, opts); e != nil {
				t.Fatalf("%s LoadSnapshot(%+v) loaded an engine", c.name, opts)
			} else {
				refused("LoadSnapshot", err)
			}
			if e, _, err := Open(dir, opts); e != nil {
				e.Close()
				t.Fatalf("%s Open(%+v) opened an engine", c.name, opts)
			} else {
				refused("Open", err)
			}
		}
	}
}

// TestOpenEmptyDirIngestRecovery: Open on an empty directory starts an
// unfrozen engine whose batch ingest is write-ahead logged; a crash
// without Close loses nothing acknowledged, and a later Checkpoint
// folds the log into a snapshot.
func TestOpenEmptyDirIngestRecovery(t *testing.T) {
	dir := t.TempDir()
	e, info := openDir(t, dir)
	if info.SnapshotEpoch != 0 || e.Frozen() {
		t.Fatalf("empty dir opened frozen or at epoch %d", info.SnapshotEpoch)
	}
	if err := e.AddKGFact("AlbertEinstein", "bornIn", "Ulm"); err != nil {
		t.Fatal(err)
	}
	if err := e.AddTokenTriple("AlbertEinstein", "won Nobel for", "the photoelectric effect", 0.9, "doc-1", "He won."); err != nil {
		t.Fatal(err)
	}
	// Crash: drop the engine without Close.

	re, info := openDir(t, dir)
	if info.WALReplayed != 2 || info.TornBytes != 0 {
		t.Fatalf("recovery info after ingest: %+v", info)
	}
	if re.Stats().Triples != 2 {
		t.Fatalf("recovered %d triples, want 2", re.Stats().Triples)
	}
	re.Freeze()
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	final, info := openDir(t, dir)
	defer final.Close()
	if info.SnapshotEpoch != 1 || info.WALReplayed != 0 {
		t.Fatalf("recovery info after checkpoint: %+v", info)
	}
	if !final.Frozen() || final.Stats().Triples != 2 {
		t.Fatalf("post-checkpoint engine: frozen=%v triples=%d", final.Frozen(), final.Stats().Triples)
	}
	res, err := final.QueryContext(context.Background(), "AlbertEinstein ?p ?o")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("post-checkpoint query answers: %d, want 2", len(res.Answers))
	}
}

// rewriteRules returns the IDs of the rules applied across the rewrites
// a query's trace lists.
func rewriteRules(t *testing.T, e *Engine, q string) map[string]bool {
	t.Helper()
	res, err := e.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool)
	for _, tr := range res.Trace {
		for _, id := range tr.Rules {
			ids[id] = true
		}
	}
	return ids
}

// TestRuleEditsSurviveRestart: add/remove/clear are logged ahead of
// publication; every acknowledged edit survives a crash, in order, and
// reaches the recovered engine's query expansion.
func TestRuleEditsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	demo := NewDemoEngine()
	if err := demo.Persist(dir); err != nil {
		t.Fatal(err)
	}
	base := len(demo.Rules())
	if err := demo.AddRule("extra-1", "?x bornIn ?y => ?x 'born in' ?y", 0.6); err != nil {
		t.Fatal(err)
	}
	if err := demo.AddRule("extra-2", "?x diedIn ?y => ?x 'died in' ?y", 0.5); err != nil {
		t.Fatal(err)
	}
	if !demo.RemoveRule("extra-1") {
		t.Fatal("RemoveRule(extra-1) = false")
	}
	// Crash without Close.

	re, info := openDir(t, dir)
	if info.WALReplayed != 3 {
		t.Fatalf("replayed %d records, want 3", info.WALReplayed)
	}
	rules := re.Rules()
	if len(rules) != base+1 || rules[len(rules)-1].ID != "extra-2" {
		t.Fatalf("recovered rules: %+v", rules)
	}
	if ids := rewriteRules(t, re, "?x diedIn ?y . ?x bornIn ?z"); !ids["extra-2"] || ids["extra-1"] {
		t.Fatalf("recovered expansion applies %v, want extra-2 and not extra-1", ids)
	}
	re.ClearRules()
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	final, info := openDir(t, dir)
	defer final.Close()
	if len(final.Rules()) != 0 {
		t.Fatalf("clear did not survive: %+v", final.Rules())
	}
	if ids := rewriteRules(t, final, "AlbertEinstein hasAdvisor ?x . ?x diedIn ?y"); len(ids) != 0 {
		t.Fatalf("expansion after a replayed clear applies %v", ids)
	}
	if info.WALReplayed != 4 {
		t.Fatalf("replayed %d records, want 4", info.WALReplayed)
	}
}

var errDisk = errors.New("injected disk failure")

// TestDurabilityFailStop: after a write-ahead failure the engine
// refuses further durable mutations with the original error — appending
// past a torn tail would turn it into mid-file corruption — and Close
// surfaces the sticky error.
func TestDurabilityFailStop(t *testing.T) {
	dir := t.TempDir()
	demo := NewDemoEngine()
	if err := demo.Persist(dir); err != nil {
		t.Fatal(err)
	}
	rulesBefore := len(demo.Rules())
	defer faultinject.NewScript().
		ErrorOn(faultinject.SiteWALAppend, "rule-add", 1, errDisk).
		Install()()

	if err := demo.AddRule("doomed", "?x bornIn ?y => ?x 'born in' ?y", 0.5); !errors.Is(err, errDisk) {
		t.Fatalf("AddRule under fault: %v", err)
	}
	if len(demo.Rules()) != rulesBefore {
		t.Fatal("failed AddRule still published the rule")
	}
	faultinject.Clear()
	// The fault is gone but durability has failed stop.
	if err := demo.AddRule("after", "?x bornIn ?y => ?x 'born in' ?y", 0.5); err == nil || !strings.Contains(err.Error(), "earlier failure") {
		t.Fatalf("AddRule after fail-stop: %v", err)
	}
	if demo.RemoveRule("fig4-1") {
		t.Fatal("RemoveRule succeeded on a fail-stopped engine")
	}
	if err := demo.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded on a fail-stopped engine")
	}
	if err := demo.Close(); !errors.Is(err, errDisk) {
		t.Fatalf("Close did not surface the sticky error: %v", err)
	}

	// Recovery lands on the last acknowledged state: the torn record is
	// truncated away.
	re, info := openDir(t, dir)
	defer re.Close()
	if info.TornBytes == 0 {
		t.Fatal("torn append left no torn tail")
	}
	if len(re.Rules()) != rulesBefore {
		t.Fatalf("recovered %d rules, want %d", len(re.Rules()), rulesBefore)
	}
}

// --- the crash-recovery chaos differential ---

const chaosRuleID = "chaos-affil"

var (
	synthSnapOnce sync.Once
	synthSnapPath string
	synthSnapErr  error
)

// synthSeedSnapshot writes the shared synthetic engine's snapshot once
// per test binary and returns its path; scenario directories are seeded
// by copying it. The shared engine itself is never made durable.
func synthSeedSnapshot(t *testing.T) string {
	t.Helper()
	e, _ := syntheticWorkload(t)
	synthSnapOnce.Do(func() {
		dir, err := os.MkdirTemp("", "trinit-seed")
		if err != nil {
			synthSnapErr = err
			return
		}
		synthSnapPath = filepath.Join(dir, "snapshot.trnt")
		synthSnapErr = e.SaveSnapshot(synthSnapPath)
	})
	if synthSnapErr != nil {
		t.Fatal(synthSnapErr)
	}
	return synthSnapPath
}

func TestCrashRecoveryDifferential(t *testing.T) {
	_, queries := syntheticWorkload(t)
	seed := synthSeedSnapshot(t)
	newDir := func() string {
		dir := t.TempDir()
		copyFile(t, seed, filepath.Join(dir, "snapshot.trnt"))
		return dir
	}
	workload := func(e *Engine) map[string]string {
		out := make(map[string]string, len(queries))
		for _, q := range queries {
			res, err := e.QueryContext(context.Background(), q.Text)
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			out[q.ID] = answersJSON(t, res)
		}
		return out
	}
	compare := func(name string, got, want map[string]string) {
		for _, q := range queries {
			if got[q.ID] != want[q.ID] {
				t.Fatalf("%s: %s answers differ from the never-crashed oracle\n got:  %s\n want: %s",
					name, q.ID, got[q.ID], want[q.ID])
			}
		}
	}
	addChaosRule := func(e *Engine) error {
		return e.AddRule(chaosRuleID, "?x affiliation ?y => ?x 'lectured at' ?y", 0.9)
	}

	// Never-crashed oracles: one with the seed state, one with the chaos
	// rule acknowledged, one with a batch of facts ingested live.
	oracleBaseEngine, _ := openDir(t, newDir())
	oracleBase := workload(oracleBaseEngine)
	// The ingest batch references entities the seed world already binds,
	// so the new facts land inside answers the workload actually ranks.
	seedRes, err := oracleBaseEngine.QueryContext(context.Background(), "?x bornIn ?y")
	if err != nil || len(seedRes.Answers) == 0 {
		t.Fatalf("seed probe query: %v (%d answers)", err, len(seedRes.Answers))
	}
	person, city := seedRes.Answers[0].Bindings["x"], seedRes.Answers[0].Bindings["y"]
	ingestBatch := []Fact{
		{Subject: "IngestNewcomer", Predicate: "bornIn", Object: city},
		{Subject: person, Predicate: "hasWonPrize", Object: "IngestPrize"},
		{Subject: person, Predicate: "lectured at", Object: "IngestInstitute", XKG: true, Confidence: 0.99, Doc: "ingest-doc", Sentence: "ingest-sentence"},
	}
	oracleBaseEngine.Close()
	oracleIngestEngine, _ := openDir(t, newDir())
	if _, err := oracleIngestEngine.IngestFacts(ingestBatch); err != nil {
		t.Fatal(err)
	}
	oracleIngest := workload(oracleIngestEngine)
	oracleIngestEngine.Close()
	oracleRuleEngine, _ := openDir(t, newDir())
	if err := addChaosRule(oracleRuleEngine); err != nil {
		t.Fatal(err)
	}
	oracleRule := workload(oracleRuleEngine)
	oracleRuleEngine.Close()
	// The rule must matter, or half the scenarios prove nothing.
	differs := false
	for id := range oracleBase {
		if oracleBase[id] != oracleRule[id] {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("chaos rule changes no workload answer; the differential is vacuous")
	}
	differs = false
	for id := range oracleBase {
		if oracleBase[id] != oracleIngest[id] {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("ingest batch changes no workload answer; the differential is vacuous")
	}

	scenarios := []struct {
		name string
		// wreck mutates the directory the way a crash at one fault point
		// would, returning which oracle the recovered engine must match.
		wreck func(t *testing.T, dir string) string
		// corrupt marks scenarios whose reopen must refuse with ErrCorrupt.
		corrupt bool
		check   func(t *testing.T, info *RecoveryInfo)
	}{
		{
			name: "torn-wal-append",
			wreck: func(t *testing.T, dir string) string {
				e, _ := openDir(t, dir)
				defer faultinject.NewScript().
					ErrorOn(faultinject.SiteWALAppend, "rule-add", 1, errDisk).
					Install()()
				if err := addChaosRule(e); !errors.Is(err, errDisk) {
					t.Fatalf("AddRule under torn append: %v", err)
				}
				return "base" // never acknowledged → must not reappear
			},
			check: func(t *testing.T, info *RecoveryInfo) {
				if info.TornBytes == 0 {
					t.Fatal("no torn tail truncated")
				}
			},
		},
		{
			name: "acked-rule-then-kill",
			wreck: func(t *testing.T, dir string) string {
				e, _ := openDir(t, dir)
				if err := addChaosRule(e); err != nil {
					t.Fatal(err)
				}
				return "rule" // acknowledged → must survive the kill
			},
			check: func(t *testing.T, info *RecoveryInfo) {
				if info.WALReplayed != 1 {
					t.Fatalf("replayed %d records, want 1", info.WALReplayed)
				}
			},
		},
		{
			name: "checkpoint-short-write",
			wreck: func(t *testing.T, dir string) string {
				e, _ := openDir(t, dir)
				if err := addChaosRule(e); err != nil {
					t.Fatal(err)
				}
				defer faultinject.NewScript().
					ErrorOn(faultinject.SiteSnapshotWrite, "", 4, errDisk).
					Install()()
				if err := e.Checkpoint(); !errors.Is(err, errDisk) {
					t.Fatalf("Checkpoint under short write: %v", err)
				}
				return "rule"
			},
			check: func(t *testing.T, info *RecoveryInfo) {
				if info.SnapshotEpoch != 1 || info.WALReplayed != 1 {
					t.Fatalf("recovery info: %+v", info)
				}
			},
		},
		{
			name: "checkpoint-fsync-error",
			wreck: func(t *testing.T, dir string) string {
				e, _ := openDir(t, dir)
				if err := addChaosRule(e); err != nil {
					t.Fatal(err)
				}
				defer faultinject.NewScript().
					ErrorOn(faultinject.SiteFsync, "snapshot", 1, errDisk).
					Install()()
				if err := e.Checkpoint(); !errors.Is(err, errDisk) {
					t.Fatalf("Checkpoint under fsync error: %v", err)
				}
				return "rule"
			},
		},
		{
			name: "kill-before-rename",
			wreck: func(t *testing.T, dir string) string {
				e, _ := openDir(t, dir)
				if err := addChaosRule(e); err != nil {
					t.Fatal(err)
				}
				defer faultinject.NewScript().
					ErrorOn(faultinject.SiteRename, "before", 1, errDisk).
					Install()()
				if err := e.Checkpoint(); !errors.Is(err, errDisk) {
					t.Fatalf("Checkpoint under kill-before-rename: %v", err)
				}
				return "rule"
			},
			check: func(t *testing.T, info *RecoveryInfo) {
				if info.SnapshotEpoch != 1 || info.WALReplayed != 1 {
					t.Fatalf("recovery info: %+v", info)
				}
			},
		},
		{
			name: "kill-after-rename",
			wreck: func(t *testing.T, dir string) string {
				e, _ := openDir(t, dir)
				if err := addChaosRule(e); err != nil {
					t.Fatal(err)
				}
				defer faultinject.NewScript().
					ErrorOn(faultinject.SiteRename, "after", 1, errDisk).
					Install()()
				if err := e.Checkpoint(); !errors.Is(err, errDisk) {
					t.Fatalf("Checkpoint under kill-after-rename: %v", err)
				}
				return "rule" // the published snapshot already folds the rule in
			},
			check: func(t *testing.T, info *RecoveryInfo) {
				// The new snapshot landed but the log never rotated: its
				// records are stale, not corrupt.
				if info.SnapshotEpoch != 2 || info.WALSkipped != 1 || info.WALReplayed != 0 {
					t.Fatalf("recovery info: %+v", info)
				}
			},
		},
		{
			name: "ingest-then-kill",
			wreck: func(t *testing.T, dir string) string {
				e, _ := openDir(t, dir)
				if _, err := e.IngestFacts(ingestBatch); err != nil {
					t.Fatal(err)
				}
				return "ingest" // acknowledged → the batch must survive the kill
			},
			check: func(t *testing.T, info *RecoveryInfo) {
				if info.WALReplayed == 0 {
					t.Fatal("no ingest records replayed")
				}
			},
		},
		{
			name: "torn-ingest-append",
			wreck: func(t *testing.T, dir string) string {
				e, _ := openDir(t, dir)
				defer faultinject.NewScript().
					ErrorOn(faultinject.SiteWALAppend, "triple", 1, errDisk).
					Install()()
				if _, err := e.IngestFacts(ingestBatch); !errors.Is(err, errDisk) {
					t.Fatalf("IngestFacts under torn append: %v", err)
				}
				return "base" // never acknowledged → must not reappear
			},
			check: func(t *testing.T, info *RecoveryInfo) {
				if info.TornBytes == 0 {
					t.Fatal("no torn tail truncated")
				}
			},
		},
		{
			name: "checkpoint-dir-fsync-error",
			wreck: func(t *testing.T, dir string) string {
				e, _ := openDir(t, dir)
				if err := addChaosRule(e); err != nil {
					t.Fatal(err)
				}
				// The data-directory fsync after the log rotation fails: the
				// snapshot rename and rotation are already on disk, so the
				// engine fails stop but recovery lands on the new epoch.
				defer faultinject.NewScript().
					ErrorOn(faultinject.SiteFsync, "wal-dir", 1, errDisk).
					Install()()
				if err := e.Checkpoint(); !errors.Is(err, errDisk) {
					t.Fatalf("Checkpoint under directory fsync error: %v", err)
				}
				return "rule"
			},
			check: func(t *testing.T, info *RecoveryInfo) {
				if info.SnapshotEpoch != 2 || info.WALReplayed != 0 {
					t.Fatalf("recovery info: %+v", info)
				}
			},
		},
		{
			name: "wal-mid-file-corruption",
			wreck: func(t *testing.T, dir string) string {
				e, _ := openDir(t, dir)
				if err := addChaosRule(e); err != nil {
					t.Fatal(err)
				}
				if err := e.AddRule("chaos-2", "?x bornIn ?y => ?x 'born in' ?y", 0.4); err != nil {
					t.Fatal(err)
				}
				e.Close()
				// Flip a bit under the first (acknowledged, mid-file) record.
				path := filepath.Join(dir, "wal.log")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[8+8+2] ^= 0x20 // magic + frame header + 2 payload bytes
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				return ""
			},
			corrupt: true,
		},
		{
			name: "snapshot-bit-flip",
			wreck: func(t *testing.T, dir string) string {
				path := filepath.Join(dir, "snapshot.trnt")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0x08
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				return ""
			},
			corrupt: true,
		},
		{
			name: "snapshot-truncation",
			wreck: func(t *testing.T, dir string) string {
				path := filepath.Join(dir, "snapshot.trnt")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data[:len(data)*3/5], 0o644); err != nil {
					t.Fatal(err)
				}
				return ""
			},
			corrupt: true,
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			dir := newDir()
			want := sc.wreck(t, dir)
			faultinject.Clear()

			if sc.corrupt {
				if _, _, err := Open(dir, nil); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Open on damaged state: err=%v, want ErrCorrupt", err)
				}
				return
			}

			re, info := openDir(t, dir)
			defer re.Close()
			if sc.check != nil {
				sc.check(t, info)
			}
			if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmp) != 0 {
				t.Fatalf("stale temp files after recovery: %v", tmp)
			}
			oracle := oracleBase
			switch want {
			case "rule":
				oracle = oracleRule
			case "ingest":
				oracle = oracleIngest
			}
			compare(sc.name, workload(re), oracle)

			// The recovered engine is fully durable again: a fresh
			// acknowledged mutation round-trips through one more kill.
			if want == "base" {
				if err := addChaosRule(re); err != nil {
					t.Fatalf("recovered engine refuses mutations: %v", err)
				}
				re2, _ := openDir(t, dir)
				defer re2.Close()
				compare(sc.name+"/re-mutated", workload(re2), oracleRule)
			}
		})
	}
}
