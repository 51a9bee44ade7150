package topk

// This file implements the parallel rewrite scheduler: Run with an
// effective parallelism above 1 evaluates a query's rewrites on a pool
// of workers instead of one at a time, so a single wide-rewrite query
// can use every core instead of one. The scheduling layer is the only
// thing that changes — the planner, the match-list cache and the
// semi-join/hash-join kernel underneath run exactly the serial code.
//
// Three properties make this safe and byte-identical to the serial
// schedule:
//
//   - the k-th-score threshold is published atomically (state.bits) and
//     read lock-free on the join hot path. A worker's snapshot can only
//     be *lower* than the true bound (the bound only rises), and a
//     too-low bound prunes less, never more — stale reads cost extra
//     work but can never drop an answer;
//   - answer writes go through a short critical section (state.mu), and
//     max-over-derivations scoring is order-independent; exact score
//     ties between derivations of one answer are broken by canonical
//     derivation identity (rewrite index, enumeration sequence), which
//     is precisely the serial first-wins order;
//   - the weight-bound rewrite skip runs at queue pop time against the
//     current shared bound, so a worker arriving late still skips every
//     provably-dominated rewrite. Rewrites are handed out in canonical
//     descending-weight order, and traces are emitted in that order
//     regardless of completion order.
//
// Match-list and hash-index builds already coalesce through the cache's
// single-flight protocol, so concurrent workers share one build instead
// of duplicating it.

import (
	"context"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"

	"trinit/internal/faultinject"
	"trinit/internal/query"
	"trinit/internal/relax"
)

// AutoParallelism, used as an Options.Parallelism or
// RunConfig.Parallelism value, selects one scheduler worker per logical
// CPU (runtime.GOMAXPROCS).
const AutoParallelism = -1

// resolveParallelism maps a Parallelism knob to a worker count: 0 and 1
// mean the serial schedule, negative values one worker per logical CPU.
func resolveParallelism(p int) int {
	if p < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if p == 0 {
		return 1
	}
	return p
}

// EffectiveParallelism maps a Parallelism knob to the worker count it
// selects (0 and 1 → 1, negative → one per logical CPU). Exported for
// admission control, which weighs a query by the evaluation goroutines
// it may occupy.
func EffectiveParallelism(p int) int { return resolveParallelism(p) }

// merge adds o's per-worker counters into m. The rewrite-space counters
// (RewritesTotal/Evaluated/Skipped) are owned by the scheduler's queue,
// not by workers, and are not merged.
func (m *Metrics) merge(o *Metrics) {
	m.SortedAccesses += o.SortedAccesses
	m.IndexScanned += o.IndexScanned
	m.PatternsMatched += o.PatternsMatched
	m.JoinBranches += o.JoinBranches
	m.PrunedBranches += o.PrunedBranches
	m.HashProbes += o.HashProbes
	m.SemiJoinDropped += o.SemiJoinDropped
	m.TokenResolutions += o.TokenResolutions
	m.ScanFallbacks += o.ScanFallbacks
	m.BlocksEmitted += o.BlocksEmitted
	m.BlockRowsFiltered += o.BlockRowsFiltered
	m.CrossShardPrunes += o.CrossShardPrunes
}

// runParallel is Run's parallel scheduler: workers pull rewrite indices
// in descending-weight order from a shared queue and evaluate them
// concurrently against one concurrent top-k state. Cancellation is
// polled by every worker exactly as in the serial schedule; a cancelled
// run drains its workers before returning the answers found so far.
func (ev *Executor) runParallel(ctx context.Context, q *query.Query, rewrites []relax.Rewrite, opts Options, cfg RunConfig, workers int) ([]Answer, Metrics, error) {
	proj := q.ProjectedVars()
	k := opts.K
	if q.Limit > 0 && q.Limit < k {
		k = q.Limit
	}
	st := newState(k, true)
	st.remote = cfg.Bound

	// Workers poll an internal context layered over the caller's: a
	// recovered worker panic cancels it, so siblings drain at their next
	// poll instead of finishing a now-pointless query.
	base := ctx
	if base == nil {
		base = context.Background()
	}
	ictx, icancel := context.WithCancel(base)
	defer icancel()
	done := ictx.Done()

	// The cost budget is one shared account: all workers charge it, and
	// the first to observe exhaustion stops the queue for everyone.
	var bt *budgetTracker
	switch {
	case cfg.BudgetShare != nil:
		bt = &cfg.BudgetShare.budgetTracker
	case cfg.Budget.limited():
		bt = newBudgetTracker(cfg.Budget)
	}

	// The emit hook is shared by every worker; serialise it so stream
	// consumers (SSE writers, REPL output) never observe concurrent
	// calls. Two admissions may still arrive in either order —
	// provisional events are best-effort by contract.
	emit := cfg.Emit
	if emit != nil {
		var emitMu sync.Mutex
		inner := cfg.Emit
		emit = func(a Answer) {
			emitMu.Lock()
			defer emitMu.Unlock()
			inner(a)
		}
	}

	// traces[ri] is owned by whichever worker pops rewrite ri, so the
	// trace assembles in canonical rewrite order no matter in which
	// order workers finish.
	var traces []RewriteTrace
	if !cfg.NoTrace {
		traces = make([]RewriteTrace, len(rewrites))
	}

	// The rewrite queue: pop hands out indices in canonical order and
	// applies the weight-bound skip against the *current* shared
	// threshold. Weights descend, so one dominated rewrite proves the
	// whole tail dominated. The skip is sound bit for bit: every score
	// is fl(W·x) with x a product of probabilities, x <= 1, and rounded
	// multiplication is monotone, so fl(W·x) <= W. The bound is strict,
	// as in the serial schedule, so rewrites able to tie the k-th score
	// still run.
	var (
		qmu        sync.Mutex
		next       int
		skipFrom   = len(rewrites)
		skipRemote bool
	)
	pop := func() (int, bool) {
		qmu.Lock()
		defer qmu.Unlock()
		if next >= len(rewrites) {
			return 0, false
		}
		if bt != nil && bt.exhausted.Load() {
			// Budget spent: stop handing out rewrites, but leave next in
			// place — it records how many were actually evaluated.
			return 0, false
		}
		if opts.Mode == Incremental && rewrites[next].Weight < st.threshold() {
			skipFrom = next
			skipRemote = st.crossShard(rewrites[next].Weight)
			next = len(rewrites)
			return 0, false
		}
		ri := next
		next++
		return ri, true
	}

	var (
		m         Metrics
		mmu       sync.Mutex
		sawCancel atomic.Bool
		panicRec  atomic.Pointer[PanicError]
		wg        sync.WaitGroup
	)
	m.RewritesTotal = len(rewrites)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			// Each worker owns a private run — per-worker scratch
			// buffers and cancellation gate — over the shared
			// executor, cache and top-k state. Metrics accumulate
			// locally and merge once at the end.
			r := &run{Executor: ev, opts: opts, done: done, emit: emit, noTrace: cfg.NoTrace}
			r.budget = bt
			if s, ok := ev.scratchPool.Get().(*evalScratch); ok {
				r.sc = *s
			}
			var local Metrics
			r.m = &local
			var scratch RewriteTrace
			var curRT *RewriteTrace
			defer func() {
				// The panic boundary of one worker: capture the first
				// panic of the run, cancel the internal context so
				// siblings drain at their next poll, and mark the
				// in-flight rewrite's trace. The scratch may be poisoned
				// mid-join (partially reset blocks, dangling env), so it
				// is NOT returned to the pool on this path; a clean exit
				// pools it as before.
				if rec := recover(); rec != nil {
					pe := &PanicError{Value: rec, Stack: debug.Stack()}
					panicRec.CompareAndSwap(nil, pe)
					icancel()
					if curRT != nil && curRT != &scratch {
						curRT.Status = "panic"
						curRT.Detail = pe.detail()
					}
				} else {
					s := r.sc
					s.env = joinEnv{}
					ev.scratchPool.Put(&s)
				}
				if r.canceled {
					sawCancel.Store(true)
				}
				mmu.Lock()
				m.merge(&local)
				mmu.Unlock()
				wg.Done()
			}()
			if faultinject.Enabled() {
				faultinject.Fire(faultinject.SiteWorkerStart, strconv.Itoa(w))
			}
			for {
				if r.pollCancel() {
					break
				}
				ri, ok := pop()
				if !ok {
					break
				}
				rt := &scratch
				if traces != nil {
					rt = &traces[ri]
				}
				*rt = RewriteTrace{}
				curRT = rt
				r.evalRewrite(rewrites[ri], ri, proj, st, &local, rt)
				curRT = nil
			}
		}(w)
	}
	wg.Wait()

	// Workers are drained; the queue counters are stable now.
	popped := next
	if skipFrom < len(rewrites) {
		m.RewritesSkipped = len(rewrites) - skipFrom
		if skipRemote {
			// Only the remote shard bound proved the tail dominated.
			m.CrossShardPrunes += len(rewrites) - skipFrom
		}
		popped = skipFrom
	}
	m.RewritesEvaluated = popped

	// Fill in the canonical-order trace: rewrite metadata for every
	// entry, and statuses for the rewrites no worker evaluated.
	ev.lastTrace = ev.lastTrace[:0]
	if traces != nil {
		for ri := range traces {
			rw := rewrites[ri]
			t := &traces[ri]
			t.Query = rw.Query.String()
			t.Weight = rw.Weight
			ids := make([]string, len(rw.Applied))
			for i, ar := range rw.Applied {
				ids[i] = ar.ID
			}
			t.Rules = ids
			if t.Status == "" {
				switch {
				case ri >= skipFrom:
					t.Status = "skipped (weight bound)"
				case bt != nil && bt.exhausted.Load():
					t.Status = "budget"
				default:
					t.Status = "canceled"
				}
			}
		}
		ev.lastTrace = traces
	}

	answers := st.ranked(k)
	// Error precedence: a recovered panic outranks budget exhaustion,
	// which outranks cancellation — a panic cancels the internal context
	// and budget exhaustion stops the queue early, so the weaker signals
	// are side effects of the stronger ones.
	var err error
	switch {
	case panicRec.Load() != nil:
		err = panicRec.Load()
	case bt != nil && bt.exhausted.Load():
		err = ErrBudgetExhausted
	case (popped < len(rewrites) && skipFrom == len(rewrites)) || sawCancel.Load():
		// The queue stopped before the end for a reason other than the
		// weight bound, or a worker unwound mid-rewrite: cancellation.
		if ctx != nil {
			err = ctx.Err()
		}
	}
	return answers, m, err
}
