package trinit

// Live-ingest contract, run with -race:
//
//   - an engine that freezes early and ingests the remaining facts live
//     (in one batch, in two batches, and with a compaction in between)
//     is byte-identical to an oracle that saw everything before Freeze —
//     same answers, explanations, suggestions, notices;
//   - ingest never blocks queries: concurrent readers keep the version
//     they pinned while batches land and compactions fold;
//   - lazy explanations survive compaction (the pinned version outlives
//     the publish that replaced it);
//   - durable engines write batches ahead to the log, rebuild the delta
//     overlay on recovery, and fold it into the next-epoch segment on
//     Checkpoint.

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// ingestWorld returns a small fact sequence with KG facts, literals, XKG
// token facts, and both directions of duplicate-key confidence conflict
// (a later higher-confidence replacement that must win and a later
// lower-confidence duplicate that must be dropped), plus queries whose
// answers straddle the freeze point.
func ingestWorld() (facts []Fact, queries []string) {
	facts = []Fact{
		{Subject: "MarieCurie", Predicate: "bornIn", Object: "Warsaw"},
		{Subject: "Warsaw", Predicate: "locatedIn", Object: "Poland"},
		{Subject: "MarieCurie", Predicate: "hasWonPrize", Object: "NobelPrize"},
		{Subject: "MarieCurie", Predicate: "bornOn", Object: "1867-11-07", LiteralObject: true},
		{Subject: "PierreCurie", Predicate: "bornIn", Object: "Paris"},
		{Subject: "MarieCurie", Predicate: "worked with", Object: "PierreCurie", XKG: true, Confidence: 0.55, Doc: "d1", Sentence: "s1"},
		// --- freeze point: everything below arrives via IngestFacts ---
		{Subject: "Paris", Predicate: "locatedIn", Object: "France"},
		{Subject: "PierreCurie", Predicate: "hasWonPrize", Object: "NobelPrize"},
		{Subject: "IreneCurie", Predicate: "bornIn", Object: "Paris"},
		{Subject: "IreneCurie", Predicate: "bornOn", Object: "1897-09-12", LiteralObject: true},
		// Higher confidence for an existing XKG key: must replace in place.
		{Subject: "MarieCurie", Predicate: "worked with", Object: "PierreCurie", XKG: true, Confidence: 0.9, Doc: "d2", Sentence: "s2"},
		// Lower confidence for the same key: must be dropped.
		{Subject: "MarieCurie", Predicate: "worked with", Object: "PierreCurie", XKG: true, Confidence: 0.3, Doc: "d3", Sentence: "s3"},
		{Subject: "IreneCurie", Predicate: "studied under", Object: "MarieCurie", XKG: true, Confidence: 0.8, Doc: "d4", Sentence: "s4"},
		{Subject: "NewTokenLab", Predicate: "employs", Object: "IreneCurie", XKG: true, Confidence: 0.7},
	}
	queries = []string{
		"?x bornIn ?y",
		"?x bornIn ?y . ?y locatedIn ?z",
		"?x hasWonPrize NobelPrize",
		"MarieCurie 'worked with' ?x",
		"?x 'studied under' MarieCurie",
		"IreneCurie ?p ?y",
		"?x bornIn Paris . ?x 'studied under' ?t",
	}
	return facts, queries
}

// ingestFreezeAt is the index of the first fact applied after Freeze in
// ingestWorld's sequence.
const ingestFreezeAt = 6

// applyPreFreeze routes a Fact through the pre-Freeze mutation API.
func applyPreFreeze(t *testing.T, e *Engine, f Fact) {
	t.Helper()
	var err error
	switch {
	case f.XKG:
		err = e.AddTokenTriple(f.Subject, f.Predicate, f.Object, f.Confidence, f.Doc, f.Sentence)
	case f.LiteralObject:
		err = e.AddKGLiteral(f.Subject, f.Predicate, f.Object)
	default:
		err = e.AddKGFact(f.Subject, f.Predicate, f.Object)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// ingestOracle builds the reference engine that saw every fact before
// Freeze.
func ingestOracle(t *testing.T, opts *Options) *Engine {
	t.Helper()
	facts, _ := ingestWorld()
	e := New(opts)
	for _, f := range facts {
		applyPreFreeze(t, e, f)
	}
	e.Freeze()
	ingestRules(t, e)
	return e
}

// ingestPartial builds an engine frozen at the freeze point, leaving the
// tail of the world for IngestFacts.
func ingestPartial(t *testing.T, opts *Options) (*Engine, []Fact) {
	t.Helper()
	facts, _ := ingestWorld()
	e := New(opts)
	for _, f := range facts[:ingestFreezeAt] {
		applyPreFreeze(t, e, f)
	}
	e.Freeze()
	ingestRules(t, e)
	return e, facts[ingestFreezeAt:]
}

func ingestRules(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.AddRule("family-city", "?x bornIn ?y => ?x livesIn ?y", 0.8); err != nil {
		t.Fatal(err)
	}
}

// compareIngest runs every world query against both engines after
// warming both caches and demands byte-identical full results —
// explanations and metrics included.
func compareIngest(t *testing.T, got, want *Engine, label string) {
	t.Helper()
	_, queries := ingestWorld()
	for _, q := range queries {
		_, _ = got.QueryContext(context.Background(), q)
		_, _ = want.QueryContext(context.Background(), q)
		g, err := got.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %q: %v", label, q, err)
		}
		w, err := want.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s oracle: %q: %v", label, q, err)
		}
		if a, b := renderResult(t, g), renderResult(t, w); a != b {
			t.Fatalf("%s: %q differs\n live:   %s\n oracle: %s", label, q, a, b)
		}
	}
}

func TestIngestDifferential(t *testing.T) {
	oracle := ingestOracle(t, nil)

	t.Run("one-batch", func(t *testing.T) {
		e, tail := ingestPartial(t, nil)
		n, err := e.IngestFacts(tail)
		if err != nil {
			t.Fatal(err)
		}
		// Every tail fact changes state except the lower-confidence
		// duplicate, which the Add path would also drop.
		if want := len(tail) - 1; n != want {
			t.Fatalf("IngestFacts applied %d facts, want %d", n, want)
		}
		ms := e.MemoryStats()
		if ms.DeltaTriples == 0 || ms.DeltaOverrides == 0 {
			t.Fatalf("expected live delta with overrides, got %+v", ms)
		}
		compareIngest(t, e, oracle, "one-batch")
	})

	t.Run("two-batches-then-compact", func(t *testing.T) {
		e, tail := ingestPartial(t, nil)
		if _, err := e.IngestFacts(tail[:3]); err != nil {
			t.Fatal(err)
		}
		if _, err := e.IngestFacts(tail[3:]); err != nil {
			t.Fatal(err)
		}
		compareIngest(t, e, oracle, "two-batches")
		if err := e.Compact(); err != nil {
			t.Fatal(err)
		}
		ms := e.MemoryStats()
		if ms.DeltaTriples != 0 || ms.DeltaOverrides != 0 {
			t.Fatalf("delta not folded by Compact: %+v", ms)
		}
		if ms.Compactions == 0 {
			t.Fatal("Compact did not count a compaction")
		}
		compareIngest(t, e, oracle, "compacted")
	})

	t.Run("rejections", func(t *testing.T) {
		e := New(nil)
		if err := e.AddKGFact("A", "p", "B"); err != nil {
			t.Fatal(err)
		}
		if _, err := e.IngestFacts([]Fact{{Subject: "A", Predicate: "p", Object: "C"}}); err == nil {
			t.Fatal("IngestFacts on an unfrozen engine succeeded")
		}
		e.Freeze()
		if _, err := e.IngestFacts([]Fact{{Subject: "A", Predicate: "q", Object: "B", XKG: true, Confidence: 1.5}}); err == nil {
			t.Fatal("IngestFacts accepted confidence > 1")
		}
		// A batch that changes nothing reports zero without publishing.
		n, err := e.IngestFacts([]Fact{{Subject: "A", Predicate: "p", Object: "B"}})
		if err != nil || n != 0 {
			t.Fatalf("no-op batch: n=%d err=%v", n, err)
		}
	})
}

// TestIngestConcurrentQueries interleaves queries from several goroutines
// with live ingest batches and a compaction. No query may fail or block
// on ingest, and the settled engine must match the oracle.
func TestIngestConcurrentQueries(t *testing.T) {
	oracle := ingestOracle(t, nil)
	e, tail := ingestPartial(t, nil)
	_, queries := ingestWorld()

	stop := make(chan struct{})
	errs := make(chan error, 16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := e.QueryContext(context.Background(), queries[i%len(queries)])
				if err != nil {
					errs <- err
					return
				}
				// The pinned version stays coherent: every explanation
				// renders against the store the answer came from, even if
				// ingest or compaction published meanwhile.
				for j := range res.Answers {
					if _, err := res.Explain(j); err != nil {
						errs <- fmt.Errorf("Explain(%d): %w", j, err)
						return
					}
				}
			}
		}()
	}
	for _, f := range tail {
		if _, err := e.IngestFacts([]Fact{f}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	compareIngest(t, e, oracle, "settled")
}

// TestIngestLazyExplainAfterCompaction pins the MVCC guarantee directly:
// a result obtained before ingest+compaction must still render its lazy
// explanations from the version it pinned, identical to an eager run on
// the same pre-ingest state.
func TestIngestLazyExplainAfterCompaction(t *testing.T) {
	e, tail := ingestPartial(t, nil)
	eager, _ := ingestPartial(t, nil)

	const q = "?x bornIn ?y"
	res, err := e.QueryContext(context.Background(), q, WithoutExplanations())
	if err != nil {
		t.Fatal(err)
	}
	want, err := eager.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestFacts(tail); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != len(want.Answers) {
		t.Fatalf("answer count %d vs %d", len(res.Answers), len(want.Answers))
	}
	for i := range res.Answers {
		ex, err := res.Explain(i)
		if err != nil {
			t.Fatalf("Explain(%d) after compaction: %v", i, err)
		}
		if a, b := fmt.Sprintf("%+v", ex), fmt.Sprintf("%+v", want.Answers[i].Explanation); a != b {
			t.Fatalf("answer %d explanation drifted after compaction\n lazy:  %s\n eager: %s", i, a, b)
		}
	}
}

// TestIngestDurableRecovery round-trips live ingest through the
// write-ahead log: batches land durable before acknowledgement, a kill
// without Checkpoint replays them into the same delta overlay, and a
// Checkpoint folds the overlay into the next-epoch segment that reopens
// with an empty delta.
func TestIngestDurableRecovery(t *testing.T) {
	oracle := ingestOracle(t, nil)
	dir := t.TempDir()
	e, tail := ingestPartial(t, nil)
	if err := e.Persist(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestFacts(tail); err != nil {
		t.Fatal(err)
	}
	// Kill: abandon the engine without Close or Checkpoint.

	re, info, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Only applied facts were logged: the dropped lower-confidence
	// duplicate never reached the WAL.
	if want := len(tail) - 1; info.WALReplayed != want {
		t.Fatalf("WALReplayed = %d, want %d", info.WALReplayed, want)
	}
	ms := re.MemoryStats()
	if ms.DeltaTriples == 0 {
		t.Fatalf("recovery did not rebuild the delta overlay: %+v", ms)
	}
	compareIngest(t, re, oracle, "recovered")

	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ms := re.MemoryStats(); ms.DeltaTriples != 0 || ms.Compactions == 0 {
		t.Fatalf("Checkpoint did not fold the delta: %+v", ms)
	}
	compareIngest(t, re, oracle, "checkpointed")
	re.Close()

	re2, info2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if info2.SnapshotEpoch != 2 || info2.WALReplayed != 0 {
		t.Fatalf("post-checkpoint recovery info: %+v", info2)
	}
	if ms := re2.MemoryStats(); ms.DeltaTriples != 0 {
		t.Fatalf("post-checkpoint reopen still has a delta: %+v", ms)
	}
	compareIngest(t, re2, oracle, "reopened")
}

// TestIngestAutoCompact checks the CompactAfter threshold: once the
// delta outgrows it, a background fold runs and the delta drains.
func TestIngestAutoCompact(t *testing.T) {
	e, tail := ingestPartial(t, &Options{CompactAfter: 2})
	for _, f := range tail {
		if _, err := e.IngestFacts([]Fact{f}); err != nil {
			t.Fatal(err)
		}
	}
	// The background compaction is asynchronous; force any remainder.
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	ms := e.MemoryStats()
	if ms.DeltaTriples != 0 {
		t.Fatalf("delta not drained: %+v", ms)
	}
	if ms.Compactions == 0 {
		t.Fatal("no compaction ran")
	}
	compareIngest(t, e, ingestOracle(t, nil), "auto-compacted")
}
