package trinit

// Differential tests for the join kernel: in both processing modes the
// kernel must rank like the reference evaluator across the full example
// workload, incremental must be byte-identical to exhaustive, and
// concurrent executors sharing the cached hash indexes must agree with a
// serial run (exercised under -race in CI).

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"trinit/internal/query"
	"trinit/internal/relax"
	"trinit/internal/store"
	"trinit/internal/topk"
)

// renderAnswers formats answers with sorted bindings; scores are printed
// exactly (%.17g round-trips float64) so byte comparison implies exact
// score equality.
func renderAnswers(st *store.Store, answers []topk.Answer) string {
	var b strings.Builder
	for _, a := range answers {
		vars := make([]string, 0, len(a.Bindings))
		for v := range a.Bindings {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		for _, v := range vars {
			fmt.Fprintf(&b, "%s=%s ", v, st.Dict().Term(a.Bindings[v]).Text)
		}
		fmt.Fprintf(&b, "| %.17g\n", a.Score)
	}
	return b.String()
}

// TestKernelDifferentialOnFullWorkload runs the complete synthetic
// workload through the kernel in both modes and checks every ranking
// against the reference evaluator.
func TestKernelDifferentialOnFullWorkload(t *testing.T) {
	cases := workloadCases(t, world().Workload(70))
	for _, km := range kernelModes {
		ev := topk.NewExecutor(fullInstance().Store, topk.NewCache(0), topk.Options{K: 10, Mode: km.mode})
		for _, c := range cases {
			got, _, err := ev.Run(context.Background(), c.q, c.rewrites, topk.RunConfig{})
			if err != nil {
				t.Fatalf("%s [%s]: %v", c.id, km.name, err)
			}
			c.check(t, "["+km.name+"]", got)
		}
	}
}

// TestIncrementalByteIdenticalToExhaustive pins the acceptance criterion
// directly: with the default kernel, incremental answers are byte-for-byte
// the exhaustive answers (same bindings, same exact scores, same order)
// on every workload query.
func TestIncrementalByteIdenticalToExhaustive(t *testing.T) {
	inst := fullInstance()
	for _, wq := range world().Workload(70) {
		q, err := query.Parse(wq.Text)
		if err != nil {
			t.Fatalf("%s: %v", wq.ID, err)
		}
		q.Projection = q.ProjectedVars()
		rewrites := relax.NewExpander(inst.Rules).Expand(q)
		inc, _ := topk.NewExecutor(inst.Store, topk.NewCache(0), topk.Options{K: 10, Mode: topk.Incremental}).Evaluate(q, rewrites)
		exh, _ := topk.NewExecutor(inst.Store, topk.NewCache(0), topk.Options{K: 10, Mode: topk.Exhaustive}).Evaluate(q, rewrites)
		if got, want := renderAnswers(inst.Store, inc), renderAnswers(inst.Store, exh); got != want {
			t.Fatalf("%s: incremental answers differ from exhaustive:\n--- incremental\n%s--- exhaustive\n%s", wq.ID, got, want)
		}
	}
}

// TestConcurrentExecutorsShareHashIndexes hammers one shared match-list
// cache (and thus one set of hash indexes and buckets) from many
// executors at once, on join-heavy queries, and checks every result
// against a serial baseline. Run with -race to catch unsynchronised
// access to the shared patternList structures.
func TestConcurrentExecutorsShareHashIndexes(t *testing.T) {
	inst := fullInstance()
	queries := []string{
		"?x affiliation ?u . ?u locatedIn Northford",
		"SELECT ?x WHERE { ?x ?p ?y . ?y locatedIn Northford . ?x affiliation ?u }",
		"?x bornIn ?y . ?y locatedIn ?z",
		"?x hasAdvisor ?a . ?a affiliation ?u",
	}
	type prepared struct {
		q        *query.Query
		rewrites []relax.Rewrite
		want     string
	}
	prep := make([]prepared, len(queries))
	cache := topk.NewCache(0)
	for i, qs := range queries {
		q := query.MustParse(qs)
		q.Projection = q.ProjectedVars()
		rewrites := relax.NewExpander(inst.Rules).Expand(q)
		ans, _ := topk.NewExecutor(inst.Store, topk.NewCache(0), topk.Options{K: 10}).Evaluate(q, rewrites)
		prep[i] = prepared{q, rewrites, renderAnswers(inst.Store, ans)}
	}
	const goroutines = 8
	const iters = 6
	errs := make(chan error, goroutines*iters)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ex := topk.NewExecutor(inst.Store, cache, topk.Options{K: 10})
			for i := 0; i < iters; i++ {
				p := prep[(g+i)%len(prep)]
				ans, _ := ex.Evaluate(p.q, p.rewrites)
				if got := renderAnswers(inst.Store, ans); got != p.want {
					errs <- fmt.Errorf("goroutine %d iter %d (%s): answers diverged from serial baseline", g, i, p.q)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s := cache.Stats(); s.Hits == 0 {
		t.Errorf("shared cache saw no index reuse: %+v", s)
	}
}
