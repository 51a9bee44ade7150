package trinit

// Engine-level serving robustness: admission control sheds with
// ErrOverloaded when saturated, readiness tracks saturation, and
// evaluation panics are recovered into ErrInternal at the query
// boundary, leaving the engine serviceable. Run with -race.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"trinit/internal/faultinject"
)

// TestAdmissionShedsWhenSaturated: with capacity 1 and a queue of 1, a
// third concurrent query — one running, one queued — is shed
// immediately with ErrOverloaded; readiness flips with saturation.
func TestAdmissionShedsWhenSaturated(t *testing.T) {
	e := NewDemoEngine()
	e.SetAdmissionControl(1, 1)
	if !e.Ready() {
		t.Fatal("idle engine not ready")
	}

	// Hold the first query in flight: the injected hook parks the
	// evaluation until released. Once hold closes, later firings of the
	// same hook pass straight through.
	hold := make(chan struct{})
	entered := make(chan struct{}, 8)
	s := faultinject.NewScript().CallOn(faultinject.SiteRewriteEval, "", 0, func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-hold
	})
	defer s.Install()()

	first := make(chan error, 1)
	go func() {
		_, err := e.QueryContext(context.Background(), "AlbertEinstein hasAdvisor ?x")
		first <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first query never started evaluating")
	}

	// The second query fills the single queue slot.
	second := make(chan error, 1)
	go func() {
		_, err := e.QueryContext(context.Background(), "?x bornIn Germany")
		second <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for e.ServingStats().Admission.Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if e.Ready() {
		t.Fatal("Ready() = true with a full admission queue")
	}

	before := e.ServingStats()
	_, err := e.QueryContext(context.Background(), "AlbertEinstein hasAdvisor ?x")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated query err = %v, want ErrOverloaded", err)
	}
	if got := e.ServingStats().QueriesShed; got != before.QueriesShed+1 {
		t.Fatalf("QueriesShed = %d, want %d", got, before.QueriesShed+1)
	}

	close(hold)
	if err := <-first; err != nil {
		t.Fatalf("held query: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("queued query: %v", err)
	}
	if !e.Ready() {
		t.Fatal("Ready() = false after the held queries released their weight")
	}
	if s := e.ServingStats().Admission; s.InUse != 0 || s.Queued != 0 {
		t.Fatalf("admission not drained: %+v", s)
	}
	if _, err := e.QueryContext(context.Background(), "AlbertEinstein hasAdvisor ?x"); err != nil {
		t.Fatalf("post-saturation query: %v", err)
	}
}

// TestAdmissionQueuedGrant: a query that queues behind a saturated
// controller is granted when the weight frees, not shed.
func TestAdmissionQueuedGrant(t *testing.T) {
	e := NewDemoEngine()
	e.SetAdmissionControl(1, 4)

	hold := make(chan struct{})
	entered := make(chan struct{}, 8)
	s := faultinject.NewScript().CallOn(faultinject.SiteRewriteEval, "", 1, func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-hold
	})
	defer s.Install()()

	first := make(chan error, 1)
	go func() {
		_, err := e.QueryContext(context.Background(), "AlbertEinstein hasAdvisor ?x")
		first <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first query never started evaluating")
	}
	faultinject.Clear()

	second := make(chan error, 1)
	go func() {
		_, err := e.QueryContext(context.Background(), "?x bornIn Germany")
		second <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for e.ServingStats().Admission.Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	close(hold)
	if err := <-first; err != nil {
		t.Fatalf("first query: %v", err)
	}
	select {
	case err := <-second:
		if err != nil {
			t.Fatalf("queued query: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued query never granted")
	}
}

// TestPanicRecoveredSerial: a panic on the serial path is caught at the
// engine boundary — typed ErrInternal, partial result with the stack in
// the trace, counter bumped, engine serviceable afterwards.
func TestPanicRecoveredSerial(t *testing.T) {
	e := NewDemoEngine()
	const text = "AlbertEinstein hasAdvisor ?x"
	if _, err := e.QueryContext(context.Background(), text); err != nil { // warm cache for the rerun comparison
		t.Fatal(err)
	}
	oracle, err := e.QueryContext(context.Background(), text)
	if err != nil {
		t.Fatal(err)
	}

	before := e.ServingStats().PanicsRecovered
	s := faultinject.NewScript().PanicOn(faultinject.SiteRewriteEval, "", 1, "injected serial crash")
	clear := s.Install()
	res, err := e.QueryContext(context.Background(), text)
	clear()

	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	if !strings.Contains(err.Error(), "injected serial crash") {
		t.Fatalf("err %q does not carry the panic value", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("want a non-nil partial result after a recovered panic")
	}
	panicTraced := false
	for _, tr := range res.Trace {
		if tr.Status == "panic" && strings.Contains(tr.Detail, "injected serial crash") {
			panicTraced = true
		}
	}
	if !panicTraced {
		t.Fatalf("no panic trace entry with the stack: %+v", res.Trace)
	}
	if got := e.ServingStats().PanicsRecovered; got != before+1 {
		t.Fatalf("PanicsRecovered = %d, want %d", got, before+1)
	}

	after, err := e.QueryContext(context.Background(), text)
	if err != nil {
		t.Fatalf("post-panic query: %v", err)
	}
	if a, b := renderResult(t, oracle), renderResult(t, after); a != b {
		t.Fatalf("post-panic result differs from pre-panic oracle\n before: %s\n after:  %s", a, b)
	}
}
