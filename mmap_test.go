package trinit

// Memory-mapped segment contract at the repo level, run with -race:
//
//   - TestMmapDifferential is the acceptance gate: the full 70-query
//     synthetic workload through an engine served zero-copy from a
//     mapped segment and through the eagerly decoded engine must
//     each rank like the reference evaluator, and the mapped engine must
//     be byte-identical — answers, explanations, suggestions, notices —
//     to the eager one AND to the never-persisted oracle, in both
//     processing modes and at P in {1, 4};
//   - mapped engines survive concurrent queries (executor pools, shared
//     caches) without data races over the shared column views;
//   - a mapped engine reports its residency through MemoryStats.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"trinit/internal/topk"
)

// loadSnapshotEngine loads the shared synthetic snapshot with the given
// options, failing the test on error.
func loadSnapshotEngine(t *testing.T, path string, opts *Options) *Engine {
	t.Helper()
	e, err := LoadSnapshot(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// requireMapped skips the calling test on hosts where zero-copy serving
// is unavailable (non-unix, big-endian); everywhere else a non-mapped
// load of a segment is a hard failure, not a skip.
func requireMapped(t *testing.T, e *Engine) {
	t.Helper()
	ms := e.MemoryStats()
	if !ms.Mapped {
		t.Skip("snapshot not mappable on this host")
	}
	if ms.MappedBytes == 0 {
		t.Fatal("mapped engine reports zero mapped bytes")
	}
}

func TestMmapDifferential(t *testing.T) {
	oracle, queries := syntheticWorkload(t)
	snap := synthSeedSnapshot(t)
	refs := make([]engineRef, len(queries))
	for i, wq := range queries {
		refs[i] = engineReference(t, oracle, wq.Text)
	}

	for _, km := range kernelModes {
		exhaustive := km.mode == topk.Exhaustive
		mode := ModeIncremental
		if exhaustive {
			mode = ModeExhaustive
		}
		t.Run(km.name, func(t *testing.T) {
			eager := loadSnapshotEngine(t, snap, &Options{NoMapSegments: true})
			if eager.MemoryStats().Mapped {
				t.Fatal("NoMapSegments engine is mapped")
			}
			mapped := loadSnapshotEngine(t, snap, nil)
			requireMapped(t, mapped)

			for qi, wq := range queries {
				for _, p := range []int{1, 4} {
					opts := []QueryOption{WithMode(mode)}
					if p > 1 {
						opts = append(opts, WithParallelism(p))
					}
					want, err := eager.QueryContext(context.Background(), wq.Text, opts...)
					if err != nil {
						t.Fatalf("%s P=%d eager: %v", wq.ID, p, err)
					}
					got, err := mapped.QueryContext(context.Background(), wq.Text, opts...)
					if err != nil {
						t.Fatalf("%s P=%d mapped: %v", wq.ID, p, err)
					}
					refs[qi].check(t, fmt.Sprintf("eager P=%d", p), want)
					refs[qi].check(t, fmt.Sprintf("mapped P=%d", p), got)
					if a, b := renderMmap(t, got), renderMmap(t, want); a != b {
						t.Fatalf("%s P=%d: mapped result differs from eager\n mapped: %s\n eager:  %s", wq.ID, p, a, b)
					}
					if !exhaustive && p == 1 {
						// The never-persisted oracle closes the loop: disk
						// round-trip plus mapping loses nothing.
						ores, err := oracle.QueryContext(context.Background(), wq.Text)
						if err != nil {
							t.Fatalf("%s oracle: %v", wq.ID, err)
						}
						if a, b := renderMmap(t, got), renderMmap(t, ores); a != b {
							t.Fatalf("%s: mapped result differs from unpersisted oracle\n mapped: %s\n oracle: %s", wq.ID, a, b)
						}
					}
				}
			}
		})
	}
}

// renderMmap serialises the result parts that must be byte-identical
// across storage representations: answers (bindings, scores, eager
// explanations), suggestions and notices. Metrics vary with cache state
// and worker timing, trace with scheduling — both excluded.
func renderMmap(t *testing.T, res *Result) string {
	t.Helper()
	type stable struct {
		Answers     []Answer
		Suggestions []Suggestion
		Notices     []Notice
	}
	b, err := json.Marshal(stable{res.Answers, res.Suggestions, res.Notices})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMmapConcurrentQueries hammers one mapped engine from many
// goroutines — pooled executors, the shared match-list cache and the
// lazily built suggester all racing over the same column views. Run
// with -race; every result must match the single-threaded baseline.
func TestMmapConcurrentQueries(t *testing.T) {
	_, queries := syntheticWorkload(t)
	snap := synthSeedSnapshot(t)
	e := loadSnapshotEngine(t, snap, nil)
	requireMapped(t, e)

	baseline := make(map[string]string, len(queries))
	for _, wq := range queries[:20] {
		res, err := e.QueryContext(context.Background(), wq.Text)
		if err != nil {
			t.Fatalf("%s: %v", wq.ID, err)
		}
		baseline[wq.ID] = renderMmap(t, res)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, wq := range queries[:20] {
				res, err := e.QueryContext(context.Background(), wq.Text, WithParallelism(1+(i+w)%3))
				if err != nil {
					errs <- err
					return
				}
				if renderMmap(t, res) != baseline[wq.ID] {
					errs <- fmt.Errorf("%s: concurrent result differs from baseline", wq.ID)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
