package trinit

// Concurrency contract of the frozen engine: Query, Complete and Stats
// run in parallel without an engine-wide lock, and every concurrent query
// returns exactly the serial baseline's answers. Run with -race.

import (
	"fmt"
	"sync"
	"testing"
)

// serialBaseline evaluates every query once on a fresh engine.
func serialBaseline(t *testing.T, queries []string) map[string]*Result {
	t.Helper()
	e := NewDemoEngine()
	out := make(map[string]*Result, len(queries))
	for _, qs := range queries {
		res, err := e.Query(qs)
		if err != nil {
			t.Fatalf("baseline %s: %v", qs, err)
		}
		out[qs] = res
	}
	return out
}

func sameAnswers(a, b *Result) error {
	if len(a.Answers) != len(b.Answers) {
		return fmt.Errorf("%d vs %d answers", len(a.Answers), len(b.Answers))
	}
	for i := range a.Answers {
		if a.Answers[i].Score != b.Answers[i].Score {
			return fmt.Errorf("answer %d: score %v vs %v", i, a.Answers[i].Score, b.Answers[i].Score)
		}
		for v, text := range a.Answers[i].Bindings {
			if b.Answers[i].Bindings[v] != text {
				return fmt.Errorf("answer %d: binding ?%s = %q vs %q", i, v, text, b.Answers[i].Bindings[v])
			}
		}
	}
	return nil
}

// TestConcurrentQueriesMatchSerialBaseline hammers one frozen engine with
// mixed Query / Complete / Stats / CacheStats traffic from many
// goroutines and asserts every query result equals the serial baseline.
func TestConcurrentQueriesMatchSerialBaseline(t *testing.T) {
	queries := []string{
		"?x bornIn Germany",
		"AlbertEinstein hasAdvisor ?x",
		"SELECT ?x WHERE { AlbertEinstein affiliation ?x . ?x member IvyLeague }",
		"AlbertEinstein 'won nobel for' ?x",
		"?x bornIn ?y . ?y locatedIn ?z",
		"?x ?p PrincetonUniversity",
	}
	baseline := serialBaseline(t, queries)

	e := NewDemoEngine()
	const goroutines = 12
	const iters = 8
	errs := make(chan error, goroutines*iters)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (g + i) % 4 {
				case 0, 1: // queries dominate, as in real traffic
					qs := queries[(g*iters+i)%len(queries)]
					res, err := e.Query(qs)
					if err != nil {
						errs <- fmt.Errorf("%s: %v", qs, err)
						continue
					}
					if err := sameAnswers(baseline[qs], res); err != nil {
						errs <- fmt.Errorf("%s: %v", qs, err)
					}
				case 2:
					if comps := e.Complete("Al", 5); len(comps) == 0 {
						errs <- fmt.Errorf("no completions for Al")
					}
					e.CacheStats()
				default:
					if s := e.Stats(); s.Triples == 0 {
						errs <- fmt.Errorf("empty stats")
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s := e.CacheStats(); s.Misses == 0 || s.Hits == 0 {
		t.Errorf("cache saw no reuse: %+v", s)
	}
}

// TestConcurrentQueriesWithRuleMutation interleaves rule mutations with
// queries: the copy-on-write rule set, and the expander compiled with
// it, must never corrupt an in-flight query. The mutator adds and removes
// inert rules, and periodically clears every rule and re-adds the one
// rule the query relaxes through (fig4-2), so each answer must match
// either the baseline or the unrelaxed baseline.
func TestConcurrentQueriesWithRuleMutation(t *testing.T) {
	const qs = "AlbertEinstein hasAdvisor ?x"
	const fig42 = "?x hasAdvisor ?y => ?y hasStudent ?x"
	baseline := serialBaseline(t, []string{qs})[qs]
	plain := NewDemoEngine()
	plain.ClearRules()
	unrelaxed, err := plain.Query(qs)
	if err != nil {
		t.Fatal(err)
	}
	if sameAnswers(baseline, unrelaxed) == nil {
		t.Fatal("the query answers the same without rules; the test cannot tell rule sets apart")
	}

	e := NewDemoEngine()
	errs := make(chan error, 256)
	stop := make(chan struct{})
	var mutator sync.WaitGroup
	mutator.Add(1)
	go func() { // mutator: add, remove and clear rules until told to stop
		defer mutator.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("inert-%d", i)
			if err := e.AddRule(id, "?x neverMatches"+id+" ?y => ?x alsoNever ?y", 0.5); err != nil {
				errs <- err
			}
			if i%2 == 0 {
				e.RemoveRule(id)
			}
			if i%5 == 0 {
				e.ClearRules()
				if err := e.AddRule("fig4-2", fig42, 1.0); err != nil {
					errs <- err
				}
			}
		}
	}()
	var queriers sync.WaitGroup
	for g := 0; g < 6; g++ {
		queriers.Add(1)
		go func() {
			defer queriers.Done()
			for i := 0; i < 10; i++ {
				res, err := e.Query(qs)
				if err != nil {
					errs <- err
					continue
				}
				if err := sameAnswers(baseline, res); err != nil && sameAnswers(unrelaxed, res) != nil {
					errs <- err
				}
			}
		}()
	}
	queriers.Wait()
	close(stop)
	mutator.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Each publication reaches the next query.
	expect := func(step string, want *Result) {
		t.Helper()
		res, err := e.Query(qs)
		if err == nil {
			err = sameAnswers(want, res)
		}
		if err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
	}
	e.ClearRules()
	expect("ClearRules", unrelaxed)
	if err := e.AddRule("fig4-2", fig42, 1.0); err != nil {
		t.Fatal(err)
	}
	expect("AddRule", baseline)
	if !e.RemoveRule("fig4-2") {
		t.Fatal("RemoveRule(fig4-2) = false")
	}
	expect("RemoveRule", unrelaxed)
}
