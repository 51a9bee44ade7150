package trinit

// Request-scoped query API contract: QueryContext with default options
// is byte-identical to Query, cancellation returns promptly with a
// partial result and ErrCanceled, per-query options never bleed between
// pooled executors, QueryStream delivers provisional → final → done in
// order, and explanations render lazily on demand. Run with -race.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	synthOnce    sync.Once
	synthEngine  *Engine
	synthQueries []EvalQuery
	synthErr     error
)

// syntheticWorkload builds the default synthetic engine and its full
// 70-query workload once per test binary.
func syntheticWorkload(t *testing.T) (*Engine, []EvalQuery) {
	t.Helper()
	synthOnce.Do(func() {
		synthEngine, synthQueries, synthErr = NewSyntheticEngine(DefaultSyntheticConfig(), 70)
	})
	if synthErr != nil {
		t.Fatal(synthErr)
	}
	return synthEngine, synthQueries
}

// renderResult serialises every exported field of a Result, so equal
// bytes mean equal answers, explanations, notices, suggestions, metrics
// and trace.
func renderResult(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// answersJSON serialises just the answers (bindings, scores, rendered
// explanations) — the parts of a Result that must be byte-identical
// across engines and runs. Metrics and trace may vary (a cold cache
// charges list builds to whichever query built them).
func answersJSON(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res.Answers)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestQueryContextCanceledBeforeEvaluate(t *testing.T) {
	e := NewDemoEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.QueryContext(ctx, "AlbertEinstein hasAdvisor ?x")
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("res = %+v, want non-nil partial result", res)
	}
}

func TestQueryContextDeadlineExpiry(t *testing.T) {
	e, _ := syntheticWorkload(t)
	start := time.Now()
	res, err := e.QueryContext(context.Background(), "?x ?p ?y . ?y ?q ?z", WithTimeout(time.Nanosecond))
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("expired query took %v to return", d)
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.DeadlineExceeded", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("want non-nil partial result on deadline expiry")
	}
}

// TestQueryContextCancelMidJoin cancels the request from inside the
// stream callback — after the processor has admitted its first answer —
// and asserts the join loop unwinds at its next cancellation check with
// the answers found so far. Exhaustive mode keeps the join running over
// the full match list (thousands of branches on the synthetic world),
// so the in-join cancellation check is guaranteed to be the one that
// observes the cancel.
func TestQueryContextCancelMidJoin(t *testing.T) {
	e, _ := syntheticWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	provisional := 0
	res, err := e.QueryStream(ctx, "?x ?p ?y", func(ev AnswerEvent) error {
		if ev.Type == EventProvisional {
			provisional++
			cancel()
		}
		return nil
	}, WithMode(ModeExhaustive))
	if provisional == 0 {
		t.Fatal("no provisional event before cancellation")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("want a partial result after mid-join cancellation")
	}
	canceledTraced := false
	for _, tr := range res.Trace {
		if tr.Status == "canceled" {
			canceledTraced = true
		}
	}
	if !canceledTraced {
		t.Fatalf("no trace entry with status canceled: %+v", res.Trace)
	}
}

// TestConcurrentPerQueryKDoesNotBleed is the pooled-executor regression
// test: per-query WithK values must never leak into other borrowers of
// the same executor pool (the old Executor.SetK mutated shared state).
func TestConcurrentPerQueryKDoesNotBleed(t *testing.T) {
	e := NewDemoEngine()
	baseline, err := e.QueryContext(context.Background(), "?x ?p ?y")
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.Answers) < 5 {
		t.Fatalf("demo ?x ?p ?y returned %d answers, need >= 5", len(baseline.Answers))
	}
	defaultN := len(baseline.Answers)

	var wg sync.WaitGroup
	errs := make(chan error, 96)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				var want int
				var res *Result
				var err error
				switch g % 3 {
				case 0:
					want = 1
					res, err = e.QueryContext(context.Background(), "?x ?p ?y", WithK(1))
				case 1:
					want = 5
					res, err = e.QueryContext(context.Background(), "?x ?p ?y", WithK(5))
				default:
					want = defaultN
					res, err = e.QueryContext(context.Background(), "?x ?p ?y")
				}
				if err != nil {
					errs <- err
					continue
				}
				if len(res.Answers) != want {
					errs <- fmt.Errorf("goroutine %d: got %d answers, want %d", g, len(res.Answers), want)
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

func TestQueryStreamEventOrdering(t *testing.T) {
	e := NewDemoEngine()
	const text = "AlbertEinstein hasAdvisor ?x"
	// Warm the cache so the streamed and batch runs below see the same
	// cache metrics.
	if _, err := e.QueryContext(context.Background(), text); err != nil {
		t.Fatal(err)
	}
	var events []AnswerEvent
	res, err := e.QueryStream(context.Background(), text, func(ev AnswerEvent) error {
		events = append(events, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	if last := events[len(events)-1]; last.Type != EventDone {
		t.Fatalf("last event = %v, want done", last.Type)
	}
	provisional, finals := 0, 0
	phase := EventProvisional
	for _, ev := range events {
		if ev.Type < phase {
			t.Fatalf("event %v after phase %v: ordering violated", ev.Type, phase)
		}
		phase = ev.Type
		switch ev.Type {
		case EventProvisional:
			provisional++
			if ev.Answer == nil {
				t.Fatal("provisional event without answer")
			}
		case EventAnswer:
			finals++
			if ev.Rank != finals {
				t.Fatalf("final answer rank = %d, want %d", ev.Rank, finals)
			}
		case EventDone:
			if ev.Metrics == nil {
				t.Fatal("done event without metrics")
			}
			if ev.Partial {
				t.Fatal("done event marked partial on a completed query")
			}
		}
	}
	if provisional == 0 {
		t.Fatal("no provisional events")
	}
	if finals != len(res.Answers) {
		t.Fatalf("%d final events, result has %d answers", finals, len(res.Answers))
	}

	// The streamed final answers equal the batch result.
	batch, err := e.QueryContext(context.Background(), text)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderResult(t, res), renderResult(t, batch); a != b {
		t.Fatalf("streamed result differs from batch result\n stream: %s\n batch:  %s", a, b)
	}
}

func TestQueryStreamCallbackErrorStopsQuery(t *testing.T) {
	e := NewDemoEngine()
	boom := errors.New("sink full")
	sawDone := false
	res, err := e.QueryStream(context.Background(), "?x ?p ?y", func(ev AnswerEvent) error {
		if ev.Type == EventDone {
			sawDone = true
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback error", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatal("callback failure must not masquerade as ErrCanceled")
	}
	if sawDone {
		t.Fatal("done event delivered after the callback failed")
	}
	if res == nil {
		t.Fatal("want the assembled result even when the callback fails")
	}
	if res.Partial {
		t.Fatal("callback failure must not mark the result partial")
	}
}

func TestWithoutExplanationsRendersLazily(t *testing.T) {
	e := NewDemoEngine()
	const text = "SELECT ?x WHERE { AlbertEinstein affiliation ?x . ?x member IvyLeague }"
	eager, err := e.QueryContext(context.Background(), text)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := e.QueryContext(context.Background(), text, WithoutExplanations())
	if err != nil {
		t.Fatal(err)
	}
	if len(lazy.Answers) != len(eager.Answers) || len(lazy.Answers) == 0 {
		t.Fatalf("answer counts differ: %d vs %d", len(lazy.Answers), len(eager.Answers))
	}
	for i, a := range lazy.Answers {
		if a.Explanation.Text != "" {
			t.Fatalf("answer %d carries an eager explanation under WithoutExplanations", i)
		}
	}
	for i := range lazy.Answers {
		ex, err := lazy.Explain(i)
		if err != nil {
			t.Fatal(err)
		}
		want := eager.Answers[i].Explanation
		if ex.Text != want.Text {
			t.Fatalf("lazy explanation %d differs:\n lazy:  %q\n eager: %q", i, ex.Text, want.Text)
		}
		if lazy.Answers[i].Explanation.Text != want.Text {
			t.Fatalf("Explain(%d) did not memoise into the answer", i)
		}
	}
	if _, err := lazy.Explain(len(lazy.Answers)); err == nil {
		t.Fatal("Explain out of range succeeded")
	}
	if _, err := lazy.Explain(-1); err == nil {
		t.Fatal("Explain(-1) succeeded")
	}
}

func TestWithoutTraceSkipsTrace(t *testing.T) {
	e := NewDemoEngine()
	res, err := e.QueryContext(context.Background(), "AlbertEinstein hasAdvisor ?x", WithoutTrace())
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatalf("trace collected under WithoutTrace: %d entries", len(res.Trace))
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
}

func TestWithModeExhaustiveMatchesIncremental(t *testing.T) {
	e := NewDemoEngine()
	for _, dq := range DemoQueries() {
		inc, err := e.QueryContext(context.Background(), dq.Query)
		if err != nil {
			t.Fatal(err)
		}
		exh, err := e.QueryContext(context.Background(), dq.Query, WithMode(ModeExhaustive))
		if err != nil {
			t.Fatal(err)
		}
		if len(inc.Answers) != len(exh.Answers) {
			t.Fatalf("user %s: %d vs %d answers", dq.User, len(inc.Answers), len(exh.Answers))
		}
		for i := range inc.Answers {
			if inc.Answers[i].Score != exh.Answers[i].Score {
				t.Fatalf("user %s answer %d: score %v vs %v", dq.User, i, inc.Answers[i].Score, exh.Answers[i].Score)
			}
		}
		if exh.Metrics.RewritesSkipped != 0 {
			t.Fatalf("exhaustive mode skipped %d rewrites", exh.Metrics.RewritesSkipped)
		}
	}
}

func TestWithKRespectsQueryLimit(t *testing.T) {
	e := NewDemoEngine()
	res, err := e.QueryContext(context.Background(), "?x ?p ?y LIMIT 2", WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("LIMIT 2 with WithK(5) returned %d answers", len(res.Answers))
	}
}

func TestTypedSentinelErrors(t *testing.T) {
	e := New(nil)
	if _, err := e.QueryContext(context.Background(), "?x bornIn Ulm"); !errors.Is(err, ErrNotFrozen) {
		t.Fatalf("Query before Freeze: err = %v, want ErrNotFrozen", err)
	}
	if _, _, err := e.Ask("Who advised Einstein?"); !errors.Is(err, ErrNotFrozen) {
		t.Fatalf("Ask before Freeze: err = %v, want ErrNotFrozen", err)
	}
	if _, err := e.MineRules(DefaultMiningConfig()); !errors.Is(err, ErrNotFrozen) {
		t.Fatalf("MineRules before Freeze: err = %v, want ErrNotFrozen", err)
	}
	e.Freeze()
	if err := e.AddKGFact("A", "p", "B"); !errors.Is(err, ErrFrozen) {
		t.Fatalf("AddKGFact after Freeze: err = %v, want ErrFrozen", err)
	}
	if err := e.AddKGLiteral("A", "p", "b"); !errors.Is(err, ErrFrozen) {
		t.Fatalf("AddKGLiteral after Freeze: err = %v, want ErrFrozen", err)
	}
	if err := e.AddTokenTriple("a", "r", "b", 0.5, "", ""); !errors.Is(err, ErrFrozen) {
		t.Fatalf("AddTokenTriple after Freeze: err = %v, want ErrFrozen", err)
	}
	if _, err := e.ExtendFromDocuments(nil); !errors.Is(err, ErrFrozen) {
		t.Fatalf("ExtendFromDocuments after Freeze: err = %v, want ErrFrozen", err)
	}
	if _, err := e.QueryContext(context.Background(), "not a 'query"); !errors.Is(err, ErrParse) {
		t.Fatalf("malformed query: err = %v, want ErrParse", err)
	} else if !strings.Contains(err.Error(), "parse error") {
		t.Fatalf("parse error lost its detail: %v", err)
	}
	demo := NewDemoEngine()
	if _, _, err := demo.Ask("gibberish beyond templates"); !errors.Is(err, ErrParse) {
		t.Fatalf("untranslatable question: err = %v, want ErrParse", err)
	}
}
