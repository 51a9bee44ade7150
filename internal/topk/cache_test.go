package topk

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trinit/internal/query"
	"trinit/internal/relax"
	"trinit/internal/score"
)

// TestCacheSingleFlight fires many executors at one shared cache for the
// same query and checks that every distinct pattern was built exactly once
// — the single-flight guarantee — while all executors got full answers.
func TestCacheSingleFlight(t *testing.T) {
	st := demoXKG()
	cache := NewCache(0)
	q := query.MustParse("SELECT ?x WHERE { AlbertEinstein affiliation ?x . ?x member IvyLeague }")
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(figure4()).Expand(q)

	baseline, _ := NewExecutor(st, NewCache(0), Options{K: 5}).Evaluate(q, rewrites)

	const goroutines = 16
	var built atomic.Int64
	var wg sync.WaitGroup
	answers := make([][]Answer, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ex := NewExecutor(st, cache, Options{K: 5})
			ans, m := ex.Evaluate(q, rewrites)
			built.Add(int64(m.PatternsMatched))
			answers[g] = ans
		}(g)
	}
	wg.Wait()

	// Distinct patterns across the rewrite space, as a serial evaluator
	// with a fresh cache would build them.
	_, serial := NewExecutor(st, NewCache(0), Options{K: 5}).Evaluate(q, rewrites)
	if got, want := int(built.Load()), serial.PatternsMatched; got != want {
		t.Errorf("concurrent builds = %d, want %d (single flight)", got, want)
	}
	for g, ans := range answers {
		if len(ans) != len(baseline) {
			t.Fatalf("goroutine %d: %d answers, want %d", g, len(ans), len(baseline))
		}
		for i := range ans {
			if ans[i].Score != baseline[i].Score {
				t.Fatalf("goroutine %d answer %d: score %v vs %v", g, i, ans[i].Score, baseline[i].Score)
			}
			for v, id := range ans[i].Bindings {
				if baseline[i].Bindings[v] != id {
					t.Fatalf("goroutine %d answer %d: binding %s differs", g, i, v)
				}
			}
		}
	}
	s := cache.Stats()
	if s.Misses != serial.PatternsMatched {
		t.Errorf("cache misses = %d, want %d", s.Misses, serial.PatternsMatched)
	}
	if s.Hits == 0 {
		t.Error("no cache hits across 16 identical queries")
	}
}

// TestCacheEviction checks the LRU size cap: the cache never exceeds its
// capacity and evicted lists are transparently rebuilt.
func TestCacheEviction(t *testing.T) {
	st := demoXKG()
	cache := NewCache(2)
	ex := NewExecutor(st, cache, Options{K: 10})

	queries := []string{
		"?x bornIn ?y",
		"?x locatedIn ?y",
		"?x affiliation ?y",
		"?x member ?y",
	}
	for round := 0; round < 2; round++ {
		for _, qs := range queries {
			q := query.MustParse(qs)
			q.Projection = q.ProjectedVars()
			ans, _ := ex.Evaluate(q, relax.NewExpander(nil).Expand(q))
			if len(ans) == 0 {
				t.Fatalf("%s: no answers", qs)
			}
		}
	}
	s := cache.Stats()
	if s.Entries > 2 {
		t.Errorf("cache holds %d entries, cap 2", s.Entries)
	}
	if s.Evictions == 0 {
		t.Error("no evictions despite 4 distinct patterns and cap 2")
	}
	if s.Misses <= 4 {
		t.Errorf("misses = %d; evicted lists should have been rebuilt", s.Misses)
	}
}

// TestEvaluatorPrivateCacheIsolated: two evaluators must not share lists.
func TestEvaluatorPrivateCacheIsolated(t *testing.T) {
	st := demoXKG()
	q := query.MustParse("?x bornIn ?y")
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(nil).Expand(q)
	a := NewExecutor(st, NewCache(0), Options{K: 5})
	b := NewExecutor(st, NewCache(0), Options{K: 5})
	_, m1 := a.Evaluate(q, rewrites)
	_, m2 := b.Evaluate(q, rewrites)
	if m1.PatternsMatched == 0 || m2.PatternsMatched == 0 {
		t.Fatalf("private caches leaked across evaluators: %+v, %+v", m1, m2)
	}
}

// TestCacheBuildPanicDoesNotPoison: a panicking build must not leave a
// never-ready entry that hangs every later lookup of the same pattern.
func TestCacheBuildPanicDoesNotPoison(t *testing.T) {
	c := NewCache(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("build panic did not propagate")
			}
		}()
		c.get("k", func() ([]score.Match, score.MatchStats) { panic("boom") })
	}()
	done := make(chan int)
	go func() {
		_, stats, built := c.get("k", func() ([]score.Match, score.MatchStats) {
			return nil, score.MatchStats{IndexScanned: 3}
		})
		if !built {
			t.Error("post-panic get did not rebuild")
		}
		done <- stats.IndexScanned
	}()
	select {
	case accesses := <-done:
		if accesses != 3 {
			t.Fatalf("rebuild accesses = %d, want 3", accesses)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cache hung after builder panic")
	}
}
