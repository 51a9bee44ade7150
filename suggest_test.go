package trinit

// Per-version suggestion memo contract, run with -race: the token →
// resource suggestions of every query equal a fresh suggester's over the
// exact store version the query pinned — never a memo entry left over
// from a predecessor — while ingest batches shift the token's overlap,
// and concurrent first-use completions all read one trie.

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"trinit/internal/query"
	"trinit/internal/suggest"
)

// suggestWorld starts with 'worked at' best covered by worksFor (2 of 3
// pairs). Its batches add 'worked at' facts whose pairs only employedBy
// connects, so the best resource moves from worksFor to employedBy.
func suggestWorld(t *testing.T) (*Engine, [][]Fact) {
	t.Helper()
	e := New(nil)
	for _, f := range []Fact{
		{Subject: "Ada", Predicate: "worksFor", Object: "NorthUniversity"},
		{Subject: "Ben", Predicate: "worksFor", Object: "SouthUniversity"},
		{Subject: "Ada", Predicate: "wonPrize", Object: "GrandPrize"},
		{Subject: "Ada", Predicate: "worked at", Object: "NorthUniversity", XKG: true, Confidence: 0.8},
		{Subject: "Ben", Predicate: "worked at", Object: "SouthUniversity", XKG: true, Confidence: 0.7},
		{Subject: "Cy", Predicate: "worked at", Object: "EastLab", XKG: true, Confidence: 0.6},
		{Subject: "Ada", Predicate: "won prize for", Object: "GrandPrize", XKG: true, Confidence: 0.9},
		{Subject: "Ben", Predicate: "won prize for", Object: "SmallPrize", XKG: true, Confidence: 0.5},
	} {
		applyPreFreeze(t, e, f)
	}
	e.Freeze()
	var batches [][]Fact
	for i, who := range []string{"Dee", "Eli", "Fay", "Gus", "Hal", "Ivy"} {
		org := fmt.Sprintf("Org%d", i)
		batches = append(batches, []Fact{
			{Subject: who, Predicate: "employedBy", Object: org},
			{Subject: who, Predicate: "worked at", Object: org, XKG: true, Confidence: 0.75},
			{Subject: who, Predicate: "won prize for", Object: "GrandPrize", XKG: true, Confidence: 0.5},
			{Subject: who, Predicate: "wonPrize", Object: "GrandPrize"},
		})
	}
	return e, batches
}

var suggestQueries = []string{
	"?x 'worked at' ?y",
	"?x 'won prize for' ?y",
	"?x 'worked at' ?y . ?x 'won prize for' ?z",
	"'north university' ?p ?y",
}

// TestSuggestDifferentialUnderIngest runs suggestion queries beside
// ingest batches and checks each result against a fresh suggester over
// the version the query pinned.
func TestSuggestDifferentialUnderIngest(t *testing.T) {
	e, batches := suggestWorld(t)
	first := e.ver.sug.Suggest(query.MustParse(suggestQueries[0]))
	if len(first) != 1 || first[0].Resource != "worksFor" {
		t.Fatalf("initial 'worked at' suggestion = %+v, want worksFor", first)
	}

	stop := make(chan struct{})
	errs := make(chan error, 8)
	// served ticks once per checked query, so the writer can let every
	// version serve a few queries before publishing the next.
	served := make(chan struct{})
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		seen = make(map[string]bool)
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				text := suggestQueries[i%len(suggestQueries)]
				res, err := e.QueryContext(context.Background(), text, WithoutExplanations(), WithoutTrace())
				if err != nil {
					errs <- err
					return
				}
				var want []Suggestion
				for _, s := range suggest.New(res.src.st).Suggest(query.MustParse(text)) {
					want = append(want, Suggestion(s))
				}
				if !reflect.DeepEqual(res.Suggestions, want) {
					errs <- fmt.Errorf("%q: suggestions %+v, fresh oracle on the pinned version %+v", text, res.Suggestions, want)
					return
				}
				if text == suggestQueries[0] && len(want) == 1 {
					mu.Lock()
					seen[want[0].Resource] = true
					mu.Unlock()
				}
				select {
				case served <- struct{}{}:
				default:
				}
				// Yield, so that on one core the writer runs between
				// queries instead of once per time slice.
				runtime.Gosched()
			}
		}()
	}
	for _, b := range batches {
		if _, err := e.IngestFacts(b); err != nil {
			t.Fatal(err)
		}
		for range 2 * len(suggestQueries) {
			select {
			case <-served:
			case err := <-errs:
				close(stop)
				wg.Wait()
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if !seen["worksFor"] || !seen["employedBy"] {
		t.Fatalf("'worked at' suggestions seen %v, want both worksFor and employedBy", seen)
	}
	res, err := e.Query(suggestQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suggestions) != 1 || res.Suggestions[0].Resource != "employedBy" {
		t.Fatalf("settled 'worked at' suggestion = %+v, want employedBy", res.Suggestions)
	}
}

// TestConcurrentFirstComplete races first-use completions on a freshly
// published version: every caller gets the same completions, equal to a
// fresh suggester's over that version's store.
func TestConcurrentFirstComplete(t *testing.T) {
	e, batches := suggestWorld(t)
	if _, err := e.IngestFacts(batches[0]); err != nil {
		t.Fatal(err)
	}
	want := suggest.New(e.ver.st).Complete("Org", 10)
	got := make([][]Completion, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = e.Complete("Org", 10)
		}()
	}
	wg.Wait()
	if len(want) == 0 {
		t.Fatal("no completions to compare")
	}
	for i := range got {
		if len(got[i]) != len(want) {
			t.Fatalf("caller %d: %d completions, want %d", i, len(got[i]), len(want))
		}
		for j, c := range want {
			if got[i][j] != (Completion{Text: c.Text, Weight: c.Weight}) {
				t.Fatalf("caller %d completion %d = %+v, want %+v", i, j, got[i][j], c)
			}
		}
	}
}
