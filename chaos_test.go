package trinit

// The chaos differential: the full 70-query synthetic workload runs
// while the fault-injection harness rotates faults through it — none,
// injected latency, evaluation panics, tiny cost budgets, and mid-stream
// cancellations. The contract under chaos:
//
//   - every query that completes returns answers byte-identical to the
//     fault-free oracle (latency faults change nothing);
//   - every query degraded by a fault returns a partial result with the
//     matching typed error — never a silent empty success;
//   - admission weights balance back to zero, no goroutines leak, and
//     the engine then serves the clean workload byte-identically.
//
// Run with -race; CI gates on this test by name.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"trinit/internal/faultinject"
)

func TestChaosDifferential(t *testing.T) {
	e, queries := syntheticWorkload(t)

	// Fault-free oracle: answers per query. Warm the cache first so the
	// oracle and the post-chaos runs see the same cache state.
	oracle := make(map[string]string, len(queries))
	for _, q := range queries {
		if _, err := e.QueryContext(context.Background(), q.Text); err != nil {
			t.Fatalf("%s: warm: %v", q.ID, err)
		}
		res, err := e.QueryContext(context.Background(), q.Text)
		if err != nil {
			t.Fatalf("%s: oracle: %v", q.ID, err)
		}
		oracle[q.ID] = answersJSON(t, res)
	}

	// Admission stays on for the whole storm so the final drain check
	// proves weight accounting balances under every fault class.
	e.SetAdmissionControl(64, 64)
	defer e.SetAdmissionControl(0, 0)

	statsBefore := e.ServingStats()
	baseline := runtime.NumGoroutine()

	var completed, degraded, panicked, budgeted, canceled int
	for i, q := range queries {
		var opts []QueryOption
		var script *faultinject.Script
		fault := i % 5
		switch fault {
		case 1: // latency on every rewrite evaluation: slow, not wrong
			script = faultinject.NewScript().
				SleepEvery(faultinject.SiteRewriteEval, "", 200*time.Microsecond)
		case 2: // crash the first rewrite evaluation
			script = faultinject.NewScript().
				PanicOn(faultinject.SiteRewriteEval, "", 1, "chaos: injected crash")
		case 3: // tiny budget: trivial queries finish, the rest degrade
			opts = append(opts, WithBudget(Budget{JoinBranches: 4, HashProbes: 4}))
		}
		if script != nil {
			faultinject.Set(script.Fn)
		}

		var res *Result
		var err error
		if fault == 4 {
			// Cancel from inside the stream after the first admission;
			// queries with no provisional answers complete cleanly.
			ctx, cancel := context.WithCancel(context.Background())
			res, err = e.QueryStream(ctx, q.Text, func(ev AnswerEvent) error {
				if ev.Type == EventProvisional {
					cancel()
				}
				return nil
			}, opts...)
			cancel()
		} else {
			res, err = e.QueryContext(context.Background(), q.Text, opts...)
		}
		faultinject.Clear()

		// Dynamic classification: the injected fault determines which
		// outcomes are legal, the query's cost determines which occurs.
		switch {
		case err == nil:
			completed++
			if res == nil {
				t.Fatalf("%s fault=%d: nil result without error", q.ID, fault)
			}
			if got := answersJSON(t, res); got != oracle[q.ID] {
				t.Fatalf("%s fault=%d: completed answers differ from oracle\n got:  %s\n want: %s",
					q.ID, fault, got, oracle[q.ID])
			}
		case errors.Is(err, ErrInternal):
			if fault != 2 {
				t.Fatalf("%s fault=%d: unexpected ErrInternal: %v", q.ID, fault, err)
			}
			if res == nil || !res.Partial {
				t.Fatalf("%s: recovered panic without a partial result", q.ID)
			}
			degraded++
			panicked++
		case errors.Is(err, ErrBudgetExhausted):
			if fault != 3 {
				t.Fatalf("%s fault=%d: unexpected ErrBudgetExhausted: %v", q.ID, fault, err)
			}
			if res == nil || !res.Partial {
				t.Fatalf("%s: budget exhaustion without a partial result", q.ID)
			}
			degraded++
			budgeted++
		case errors.Is(err, ErrCanceled):
			if fault != 4 {
				t.Fatalf("%s fault=%d: unexpected ErrCanceled: %v", q.ID, fault, err)
			}
			if res == nil || !res.Partial {
				t.Fatalf("%s: cancellation without a partial result", q.ID)
			}
			degraded++
			canceled++
		default:
			t.Fatalf("%s fault=%d: untyped error %v", q.ID, fault, err)
		}
	}

	// The storm must actually have exercised each degradation path.
	if panicked == 0 || budgeted == 0 || canceled == 0 {
		t.Fatalf("storm too gentle: panics=%d budget=%d canceled=%d", panicked, budgeted, canceled)
	}
	if completed == 0 {
		t.Fatal("no query completed under chaos")
	}
	t.Logf("chaos: %d completed, %d degraded (%d panic, %d budget, %d canceled)",
		completed, degraded, panicked, budgeted, canceled)

	// Serving counters moved in step with the classification.
	stats := e.ServingStats()
	if got := stats.PanicsRecovered - statsBefore.PanicsRecovered; got != uint64(panicked) {
		t.Fatalf("PanicsRecovered delta = %d, want %d", got, panicked)
	}
	if got := stats.BudgetExhausted - statsBefore.BudgetExhausted; got != uint64(budgeted) {
		t.Fatalf("BudgetExhausted delta = %d, want %d", got, budgeted)
	}
	if stats.InFlight != 0 {
		t.Fatalf("InFlight = %d after the storm, want 0", stats.InFlight)
	}
	if a := stats.Admission; a.InUse != 0 || a.Queued != 0 {
		t.Fatalf("admission weights leaked: %+v", a)
	}

	// No goroutine leaks: the count settles back to the pre-storm
	// baseline.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after the storm, baseline %d", n, baseline)
	}

	// The engine is still the same engine: the clean workload is
	// byte-identical to the pre-storm oracle.
	for _, q := range queries {
		res, err := e.QueryContext(context.Background(), q.Text)
		if err != nil {
			t.Fatalf("post-chaos %s: %v", q.ID, err)
		}
		if got := answersJSON(t, res); got != oracle[q.ID] {
			t.Fatalf("post-chaos %s: answers differ from oracle", q.ID)
		}
	}
}
