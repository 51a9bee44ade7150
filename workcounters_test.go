package trinit

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trinit/internal/query"
	"trinit/internal/relax"
	"trinit/internal/topk"
)

var updateGolden = flag.Bool("update", false, "regenerate the root testdata/*.golden files")

const workCountersGolden = "testdata/workcounters.golden"

// renderWorkCounters runs the 70-query synthetic workload serially at
// k = 10 on a fresh engine per processing mode and renders each query's
// work counters, one line per query. Counters that count cache misses
// (PatternsMatched, IndexScanned, TokenResolutions) depend on the
// queries before them, so the order and the fresh engine are part of
// the contract.
func renderWorkCounters(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, m := range []struct {
		name string
		mode QueryMode
	}{{"incremental", ModeIncremental}, {"exhaustive", ModeExhaustive}} {
		e, queries, err := NewSyntheticEngine(DefaultSyntheticConfig(), 70)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "## %s\n", m.name)
		for _, q := range queries {
			res, err := e.QueryContext(context.Background(), q.Text,
				WithK(10), WithMode(m.mode), WithoutExplanations())
			if err != nil {
				t.Fatalf("%s %s: %v", m.name, q.ID, err)
			}
			x := res.Metrics
			fmt.Fprintf(&b, "%s rw=%d/%d/%d patterns=%d scanned=%d sorted=%d branches=%d pruned=%d probes=%d semijoin=%d blocks=%d filtered=%d tokres=%d fallbacks=%d\n",
				q.ID, x.RewritesTotal, x.RewritesEvaluated, x.RewritesSkipped,
				x.PatternsMatched, x.IndexScanned, x.SortedAccesses, x.JoinBranches,
				x.PrunedBranches, x.HashProbes, x.SemiJoinDropped, x.BlocksEmitted,
				x.BlockRowsFiltered, x.TokenResolutions, x.ScanFallbacks)
		}
	}
	return b.Bytes()
}

// TestWorkCountersGolden pins the work every workload query does — the
// rewrites evaluated and skipped, the lists built, the index entries
// scanned, the join branches explored and pruned — exactly, with no
// noise band: a change that alters work shows the diff in review.
// Regenerate with go test -run TestWorkCountersGolden -update.
func TestWorkCountersGolden(t *testing.T) {
	checkGolden(t, workCountersGolden, renderWorkCounters(t))
}

// checkGolden compares got with the golden file at path line by line, or
// rewrites the file when the test runs with -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output differs from %s in length: %d lines, want %d", path, len(gl), len(wl))
}

// warmRunAllocCeiling bounds the heap allocations of one warm serial
// Executor.Run of the wide-join query's depth-3 rewrite space: about
// three times the ≈325 the block kernel needs today.
const warmRunAllocCeiling = 1_000

// TestWarmRunAllocCeiling guards the join kernel's allocation profile on
// a warm match-list cache. The ceiling sits well above today's count, so
// Go versions that allocate a little differently do not trip it, while a
// kernel that allocates per row or per branch does.
func TestWarmRunAllocCeiling(t *testing.T) {
	inst := fullInstance()
	q := query.MustParse("SELECT ?x WHERE { ?x ?p ?y . ?y locatedIn Northford . ?x affiliation ?u }")
	q.Projection = q.ProjectedVars()
	exp := relax.NewExpander(inst.Rules)
	exp.MaxDepth, exp.MaxRewrites = 3, 256
	rewrites := exp.Expand(q)
	ex := topk.NewExecutor(inst.Store, topk.NewCache(0), topk.Options{K: 10})
	cfg := topk.RunConfig{NoTrace: true}
	if ans, _, err := ex.Run(context.Background(), q, rewrites, cfg); err != nil || len(ans) == 0 {
		t.Fatalf("warm-up run: %d answers, %v", len(ans), err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := ex.Run(context.Background(), q, rewrites, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per warm run of %d rewrites (ceiling %d)", allocs, len(rewrites), warmRunAllocCeiling)
	if allocs > warmRunAllocCeiling {
		t.Fatalf("a warm serial run allocated %.0f times, ceiling %d", allocs, warmRunAllocCeiling)
	}
}
