// Package faultinject provides the engine's fault-injection hook
// points: named sites on the query path (worker start, rewrite
// evaluation, match-list builds, block flushes) where a test can
// deterministically inject panics, latency or arbitrary side effects
// (cancelling a captured context, exhausting a budget) without build
// tags or test-only forks of the production code.
//
// In production no hook is installed and every site costs one atomic
// load of a false flag — Fire returns before touching its arguments, so
// call sites may guard any allocation needed to build a key behind
// Enabled(). Tests install a hook with Set (usually a Script) and must
// Clear it when done; the chaos differential test drives the whole
// engine through these sites and asserts that completed queries stay
// byte-identical to the fault-free oracle while injected faults degrade
// into typed, partial results.
package faultinject

import (
	"sync"
	"sync/atomic"
	"time"
)

// Site names one fault-injection point on the query path.
type Site string

const (
	// SiteRewriteEval fires at the top of every rewrite evaluation,
	// keyed by the rewrite's index in the rewrite space. A panicking
	// hook here simulates a crash mid-query; a sleeping hook simulates a
	// slow evaluation.
	SiteRewriteEval Site = "rewrite-eval"
	// SiteListBuild fires inside a match-list cache build, keyed by the
	// pattern key. A sleeping hook simulates slow index access (the
	// original system's remote ElasticSearch lists); a panicking hook
	// exercises the cache's failed-build recovery protocol.
	SiteListBuild Site = "list-build"
	// SiteBlockFlush fires every time the block kernel flushes a full
	// frontier block, with an empty key.
	SiteBlockFlush Site = "block-flush"

	// I/O fault sites on the durability path. These fire through FireErr:
	// an error-returning hook simulates the disk failing — or the process
	// being killed — at that exact point, and the caller leaves whatever
	// partial on-disk state a real crash would leave.

	// SiteSnapshotWrite fires on every write of snapshot bytes to the
	// temp file, keyed by the write ordinal. An error here produces a
	// short write: half the chunk lands on disk, the rest never does.
	SiteSnapshotWrite Site = "snapshot-write"
	// SiteWALAppend fires on every write-ahead-log append, keyed by the
	// record kind. An error here tears the record: a prefix of the frame
	// reaches the file, simulating a crash mid-append.
	SiteWALAppend Site = "wal-append"
	// SiteFsync fires before each fsync, keyed by what is being synced
	// ("snapshot", "wal", "dir"). An error here means the data may or may
	// not have reached the platter; the writer must treat it as failure.
	SiteFsync Site = "fsync"
	// SiteRename fires around the snapshot's atomic rename, keyed
	// "before" or "after". An error at "before" simulates a kill with the
	// temp file written but never published; at "after", a kill between
	// publishing the snapshot and rotating the WAL.
	SiteRename Site = "rename"
)

// Fn is an installed hook: it receives every Fire call and may sleep,
// panic, or run arbitrary side effects. It must be safe for concurrent
// use — concurrent queries and shard runs fire sites concurrently.
type Fn func(site Site, key string)

// ErrFn is an installed error hook: it receives every FireErr call and
// may return a non-nil error to make the I/O site fail. It must be safe
// for concurrent use.
type ErrFn func(site Site, key string) error

var (
	enabled atomic.Bool
	hook    atomic.Pointer[Fn]
	errHook atomic.Pointer[ErrFn]
)

// Enabled reports whether a hook is installed. Call sites use it to
// guard key construction that would allocate on the production path.
func Enabled() bool { return enabled.Load() }

// Fire invokes the installed hook, if any. It is the per-site
// production cost: one atomic load when no hook is installed.
func Fire(site Site, key string) {
	if !enabled.Load() {
		return
	}
	if f := hook.Load(); f != nil {
		(*f)(site, key)
	}
}

// FireErr invokes the installed error hook, if any, and returns its
// verdict. I/O sites call it before (or instead of) the real operation;
// a non-nil return makes the operation fail as if the disk — or the
// process — died right there. Production cost: one atomic load.
func FireErr(site Site, key string) error {
	if !enabled.Load() {
		return nil
	}
	if f := errHook.Load(); f != nil {
		return (*f)(site, key)
	}
	return nil
}

// Set installs fn as the process-wide hook. Tests must Clear when done
// (t.Cleanup(faultinject.Clear)); installing is not meant to be raced
// with other tests that also inject.
func Set(fn Fn) {
	hook.Store(&fn)
	enabled.Store(true)
}

// SetErr installs fn as the process-wide error hook for I/O sites.
// Tests must Clear when done.
func SetErr(fn ErrFn) {
	errHook.Store(&fn)
	enabled.Store(true)
}

// Clear removes every installed hook, restoring the production behaviour.
func Clear() {
	enabled.Store(false)
	hook.Store(nil)
	errHook.Store(nil)
}

// Script is a deterministic injector: an ordered set of rules matched
// against (site, key) occurrence counts. Each rule keeps its own match
// counter, so "panic on the 3rd rewrite evaluation" or "sleep on every
// list build" compose without interfering. Install with
// faultinject.Set(s.Fn) (or s.Install()).
type Script struct {
	mu    sync.Mutex
	rules []*rule
}

type rule struct {
	site  Site
	key   string // "" matches any key
	nth   int    // fire on the nth matching occurrence; 0 fires on every occurrence
	count int
	fired int
	act   func() // side-effect rule, matched by Fn
	err   error  // error rule, matched by ErrFn
}

// NewScript returns an empty script.
func NewScript() *Script { return &Script{} }

// PanicOn panics with value on the nth occurrence of site with key
// ("" = any key). The panic unwinds through the engine's panic
// isolation, not through the script.
func (s *Script) PanicOn(site Site, key string, nth int, value string) *Script {
	return s.on(site, key, nth, func() { panic(value) })
}

// SleepEvery sleeps d on every occurrence of site with key ("" = any
// key) — the latency-fault primitive.
func (s *Script) SleepEvery(site Site, key string, d time.Duration) *Script {
	return s.on(site, key, 0, func() { time.Sleep(d) })
}

// CallOn runs fn on the nth occurrence of site with key ("" = any key);
// nth 0 runs it on every occurrence. Use it to cancel a captured
// context mid-stream or to flip external state.
func (s *Script) CallOn(site Site, key string, nth int, fn func()) *Script {
	return s.on(site, key, nth, fn)
}

// ErrorOn makes the nth occurrence of I/O site with key ("" = any key)
// return err through FireErr; nth 0 fails every occurrence. The caller
// of the fault site decides what partial state the failure leaves, so an
// ErrorOn at SiteWALAppend produces a torn record, not a clean no-op.
func (s *Script) ErrorOn(site Site, key string, nth int, err error) *Script {
	s.mu.Lock()
	s.rules = append(s.rules, &rule{site: site, key: key, nth: nth, err: err})
	s.mu.Unlock()
	return s
}

func (s *Script) on(site Site, key string, nth int, act func()) *Script {
	s.mu.Lock()
	s.rules = append(s.rules, &rule{site: site, key: key, nth: nth, act: act})
	s.mu.Unlock()
	return s
}

// Fn is the Script's hook function. Matching and counting happen under
// the script's lock; the triggered actions run after it is released, so
// a panicking or sleeping action never wedges concurrent Fire calls.
func (s *Script) Fn(site Site, key string) {
	var acts []func()
	s.mu.Lock()
	for _, r := range s.rules {
		if r.err != nil || r.site != site || (r.key != "" && r.key != key) {
			continue
		}
		r.count++
		if r.nth == 0 || r.count == r.nth {
			r.fired++
			acts = append(acts, r.act)
		}
	}
	s.mu.Unlock()
	for _, a := range acts {
		a()
	}
}

// ErrFn is the Script's error hook: the first matching ErrorOn rule due
// to fire decides the site's fate. Side-effect rules never match here,
// so a script mixing both kinds counts each rule exactly once per Fire
// or FireErr.
func (s *Script) ErrFn(site Site, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.rules {
		if r.err == nil || r.site != site || (r.key != "" && r.key != key) {
			continue
		}
		r.count++
		if r.nth == 0 || r.count == r.nth {
			r.fired++
			return r.err
		}
	}
	return nil
}

// Install sets the script as the process-wide hook — both the
// side-effect and the error hook — and returns Clear for deferring:
// defer s.Install()().
func (s *Script) Install() func() {
	Set(s.Fn)
	SetErr(s.ErrFn)
	return Clear
}

// Fired reports how many times rules for site with key ("" = any key)
// have triggered their action — the test-side assertion that an
// injected fault actually happened.
func (s *Script) Fired(site Site, key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, r := range s.rules {
		if r.site == site && (key == "" || r.key == key) {
			n += r.fired
		}
	}
	return n
}
