package trinit

// Parallel rewrite-scheduler contract at the repo level, run with -race:
//
//   - the acceptance differential: on the full 70-query synthetic
//     workload, in both processing modes, every schedule (serial and
//     P in {1, 2, 4, 8}) ranks like the reference evaluator, and the
//     parallel schedules return answers byte-identical to the serial
//     one — bindings, scores, derivations, plans and all;
//   - pool x pool: concurrent *queries* each running with internal
//     parallelism > 1 against one engine return the serial baseline's
//     answers;
//   - a mid-flight cancellation of a parallel query drains its workers
//     and surfaces a Partial result with ErrCanceled.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"trinit/internal/topk"
)

// TestParallelByteIdenticalToSerial is the acceptance differential: the
// complete synthetic workload in both modes, the serial schedule and
// parallelism 1, 2, 4 and 8, each checked against the reference
// evaluator. reflect.DeepEqual of every width against serial over the
// full []topk.Answer then pins bindings, exact scores, and the stored
// derivation (triples, probabilities, plan, rewrite) — the
// canonical-derivation tie-break must make even equal-scoring derivation
// choices identical.
func TestParallelByteIdenticalToSerial(t *testing.T) {
	cases := workloadCases(t, world().Workload(70))
	for _, km := range kernelModes {
		// One warmed evaluator per mode: every width probes the same
		// shared cache, as pooled executors do in the engine.
		ev := topk.New(fullInstance().Store, topk.Options{K: 10, Mode: km.mode})
		for _, c := range cases {
			serial, _, err := ev.Run(context.Background(), c.q, c.rewrites, topk.RunConfig{})
			if err != nil {
				t.Fatalf("%s [%s]: %v", c.id, km.name, err)
			}
			c.check(t, "["+km.name+" serial]", serial)
			for _, p := range []int{1, 2, 4, 8} {
				got, _, err := ev.Run(context.Background(), c.q, c.rewrites, topk.RunConfig{Parallelism: p})
				if err != nil {
					t.Fatalf("%s [%s] P=%d: %v", c.id, km.name, p, err)
				}
				c.check(t, fmt.Sprintf("[%s P=%d]", km.name, p), got)
				if !reflect.DeepEqual(got, serial) {
					t.Fatalf("%s [%s] P=%d: parallel answers differ from serial\n got:  %+v\n want: %+v",
						c.id, km.name, p, got, serial)
				}
			}
		}
	}
}

// answersJSON serialises just the answers (bindings, scores, rendered
// explanations) — the parts of a Result that must be byte-identical
// under parallelism. Metrics and trace legitimately vary with worker
// timing.
func answersJSON(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res.Answers)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWithParallelismAnswersMatchSerial pins the public API: the same
// query through QueryContext with and without WithParallelism yields
// byte-identical answers, eager explanations included (explanations
// render from the stored derivation, so this also covers derivation
// identity end to end).
func TestWithParallelismAnswersMatchSerial(t *testing.T) {
	e, queries := syntheticWorkload(t)
	for i, wq := range queries {
		if i >= 20 {
			break
		}
		serial, err := e.QueryContext(context.Background(), wq.Text)
		if err != nil {
			t.Fatalf("%s: %v", wq.ID, err)
		}
		par, err := e.QueryContext(context.Background(), wq.Text, WithParallelism(4))
		if err != nil {
			t.Fatalf("%s parallel: %v", wq.ID, err)
		}
		if a, b := answersJSON(t, serial), answersJSON(t, par); a != b {
			t.Fatalf("%s: parallel answers differ\n serial:   %s\n parallel: %s", wq.ID, a, b)
		}
	}
}

// TestConcurrentParallelQueriesMatchSerialBaseline is the pool x pool
// stress test: many concurrent queries, each itself running with
// internal parallelism, against one engine — executor pool interacting
// with scheduler worker pools, all sharing one match-list cache.
func TestConcurrentParallelQueriesMatchSerialBaseline(t *testing.T) {
	e, queries := syntheticWorkload(t)
	texts := make([]string, 0, 12)
	for i, wq := range queries {
		if i >= 12 {
			break
		}
		texts = append(texts, wq.Text)
	}
	baseline := make(map[string]string, len(texts))
	for _, text := range texts {
		res, err := e.QueryContext(context.Background(), text)
		if err != nil {
			t.Fatalf("baseline %s: %v", text, err)
		}
		baseline[text] = answersJSON(t, res)
	}

	const goroutines = 8
	const iters = 6
	errs := make(chan error, goroutines*iters)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				text := texts[(g*iters+i)%len(texts)]
				// Alternate parallel widths, with plain serial queries
				// mixed into the same traffic.
				opts := []QueryOption{WithParallelism(2 + 2*(i%4))}
				if (g+i)%3 == 0 {
					opts = nil
				}
				res, err := e.QueryContext(context.Background(), text, opts...)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", text, err)
					continue
				}
				if got := answersJSON(t, res); got != baseline[text] {
					errs <- fmt.Errorf("%s: answers diverged from serial baseline under pool x pool load", text)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestParallelQueryCancellationDrainsWorkers cancels a parallel query
// from its own stream callback — after the first admission — and
// asserts the run surfaces a Partial result wrapping ErrCanceled while
// every scheduler worker unwinds (goroutine count settles back).
func TestParallelQueryCancellationDrainsWorkers(t *testing.T) {
	e, _ := syntheticWorkload(t)
	const text = "?x affiliation ?u . ?u locatedIn Northford"
	// Warm the cache so the measured run spends its time in the join
	// kernel, where cancellation polling happens.
	if _, err := e.QueryContext(context.Background(), text); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	provisional := 0
	res, err := e.QueryStream(ctx, text, func(ev AnswerEvent) error {
		if ev.Type == EventProvisional {
			provisional++
			cancel()
		}
		return nil
	}, WithMode(ModeExhaustive), WithParallelism(8))
	if provisional == 0 {
		t.Fatal("no provisional event before cancellation")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("want a partial result after mid-flight cancellation of a parallel run")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after cancelled parallel query, baseline %d: workers not drained", n, before)
	}
}
