package relax_test

import (
	"testing"

	"trinit/internal/query"
	"trinit/internal/relax"
)

// expansionAllocCeiling bounds the heap allocations of expanding the
// whole 70-query workload once at depth 3 / 256 rewrites under the
// benchmark-shaped rule set: about a quarter of what an expander that
// re-normalises token text per comparison, re-renders canonical keys
// through fmt and copies a substitution map per binding needs (≈518k).
// The compiled expander needs ≈12k.
const expansionAllocCeiling = 130_000

// TestExpansionAllocCeiling guards the compiled expander's allocation
// profile. The ceiling sits ten times above today's count, so Go
// versions that allocate a little differently do not trip it, while a
// return to per-comparison normalisation, fmt-rendered keys or copied
// substitution maps does.
func TestExpansionAllocCeiling(t *testing.T) {
	w, st := goldenCorpus()
	exp := relax.NewExpander(benchRules(st))
	exp.MaxDepth, exp.MaxRewrites = 3, 256
	var qs []*query.Query
	for _, wq := range w.Workload(70) {
		q := query.MustParse(wq.Text)
		q.Projection = q.ProjectedVars()
		qs = append(qs, q)
	}
	allocs := testing.AllocsPerRun(3, func() {
		for _, q := range qs {
			exp.Expand(q)
		}
	})
	t.Logf("%.0f allocations per workload expansion (ceiling %d)", allocs, expansionAllocCeiling)
	if allocs > expansionAllocCeiling {
		t.Fatalf("expanding the workload allocated %.0f times, ceiling %d", allocs, expansionAllocCeiling)
	}
}
