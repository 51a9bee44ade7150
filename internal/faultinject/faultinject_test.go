package faultinject

import (
	"sync"
	"testing"
	"time"
)

// TestDisabledByDefault: with no hook installed, Enabled is false and
// Fire is a no-op — the production configuration.
func TestDisabledByDefault(t *testing.T) {
	Clear()
	if Enabled() {
		t.Fatal("Enabled() = true with no hook installed")
	}
	Fire(SiteRewriteEval, "0") // must not panic or block
}

// TestSetFireClear: Set routes Fire calls to the hook, Clear restores
// the no-op production behaviour.
func TestSetFireClear(t *testing.T) {
	var calls []string
	Set(func(site Site, key string) { calls = append(calls, string(site)+"/"+key) })
	t.Cleanup(Clear)
	if !Enabled() {
		t.Fatal("Enabled() = false after Set")
	}
	Fire(SiteListBuild, "p1")
	Fire(SiteBlockFlush, "")
	Clear()
	Fire(SiteListBuild, "p2") // after Clear: dropped
	want := []string{"list-build/p1", "block-flush/"}
	if len(calls) != len(want) {
		t.Fatalf("calls = %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("calls[%d] = %q, want %q", i, calls[i], want[i])
		}
	}
}

// TestScriptNth: a PanicOn rule with nth=3 fires exactly on the third
// matching occurrence, and Fired counts it.
func TestScriptNth(t *testing.T) {
	s := NewScript().PanicOn(SiteRewriteEval, "2", 3, "boom")
	defer s.Install()()

	fire := func() (panicked bool) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		Fire(SiteRewriteEval, "2")
		return false
	}

	Fire(SiteRewriteEval, "1") // wrong key: no match
	if fire() || fire() {
		t.Fatal("panicked before the 3rd occurrence")
	}
	if !fire() {
		t.Fatal("did not panic on the 3rd occurrence")
	}
	if fire() {
		t.Fatal("panicked again after the 3rd occurrence")
	}
	if got := s.Fired(SiteRewriteEval, "2"); got != 1 {
		t.Fatalf("Fired = %d, want 1", got)
	}
}

// TestScriptEveryAndAnyKey: nth=0 fires on every occurrence, key=""
// matches any key.
func TestScriptEveryAndAnyKey(t *testing.T) {
	n := 0
	s := NewScript().CallOn(SiteListBuild, "", 0, func() { n++ })
	defer s.Install()()
	Fire(SiteListBuild, "a")
	Fire(SiteListBuild, "b")
	Fire(SiteRewriteEval, "0") // different site: no match
	if n != 2 {
		t.Fatalf("action ran %d times, want 2", n)
	}
	if got := s.Fired(SiteListBuild, ""); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
}

// TestScriptSleepEvery: SleepEvery delays each firing occurrence.
func TestScriptSleepEvery(t *testing.T) {
	s := NewScript().SleepEvery(SiteBlockFlush, "", 20*time.Millisecond)
	defer s.Install()()
	start := time.Now()
	Fire(SiteBlockFlush, "")
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("Fire returned after %v, want >= ~20ms sleep", d)
	}
}

// TestScriptConcurrentFire: concurrent Fire calls through one script
// must not race (run under -race) and must count every occurrence.
func TestScriptConcurrentFire(t *testing.T) {
	s := NewScript().CallOn(SiteRewriteEval, "", 0, func() {})
	defer s.Install()()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				Fire(SiteRewriteEval, "w")
			}
		}()
	}
	wg.Wait()
	if got := s.Fired(SiteRewriteEval, ""); got != 800 {
		t.Fatalf("Fired = %d, want 800", got)
	}
}

// TestScriptPanicDoesNotWedge: a panicking action runs outside the
// script lock, so a concurrent Fire on another goroutine proceeds.
func TestScriptPanicDoesNotWedge(t *testing.T) {
	s := NewScript().PanicOn(SiteRewriteEval, "", 1, "boom")
	defer s.Install()()
	func() {
		defer func() { recover() }()
		Fire(SiteRewriteEval, "0")
	}()
	done := make(chan struct{})
	go func() {
		Fire(SiteRewriteEval, "1") // must not block on a held lock
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Fire blocked after a panicking action")
	}
}
