package topk

// This file implements the processor's overload defenses: per-query
// cost budgets and typed panic capture.
//
// A Budget caps the work one Run may do — join branches explored, hash
// buckets probed, frontier blocks emitted — using the Metrics counters
// the kernels already maintain. Enforcement happens at the existing
// cancellation poll points (rewrite boundaries, every
// cancelCheckInterval join branches, block flushes), so budgets add no
// new hot-path checks: a run with no budget costs one extra nil test
// per poll. Exhaustion behaves exactly like a cancellation — kernels
// unwind at the next poll, the answers found so far are ranked as
// usual — but is reported as ErrBudgetExhausted with "budget" trace
// statuses, so callers can distinguish "you hit your cost cap" from
// "you went away". The incremental threshold algorithm makes the
// partial result sound: every returned answer is a real answer whose
// reported score is the max over the derivations explored so far, i.e.
// a lower bound on its unbudgeted score.

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrBudgetExhausted is returned by Run when the query's cost budget
// was spent before the rewrite space was fully processed. The answers
// returned alongside it are a sound partial top-k (see file comment).
var ErrBudgetExhausted = errors.New("topk: query budget exhausted")

// Budget caps the work of one Run. A zero field is unlimited; the zero
// Budget disables budgeting entirely (and costs nothing at runtime).
// Limits are enforced at the kernels' cancellation poll points, so a
// run may overshoot a cap by at most one poll interval
// (cancelCheckInterval branches, or one frontier block).
type Budget struct {
	// JoinBranches caps candidate combinations explored during joins
	// (Metrics.JoinBranches).
	JoinBranches int64
	// HashProbes caps hash-index bucket lookups (Metrics.HashProbes).
	HashProbes int64
	// Blocks caps frontier blocks emitted by the block kernel
	// (Metrics.BlocksEmitted).
	Blocks int64
}

// limited reports whether any cap is set.
func (b Budget) limited() bool {
	return b.JoinBranches > 0 || b.HashProbes > 0 || b.Blocks > 0
}

// budgetTracker is the charge account of one Run, or of every shard run
// of one sharded query (BudgetShare): runs add their metric deltas and
// compare against the limits. exhausted is sticky — once any cap is
// crossed every poll of every run charging it reports over-budget.
type budgetTracker struct {
	limits    Budget
	branches  atomic.Int64
	probes    atomic.Int64
	blocks    atomic.Int64
	exhausted atomic.Bool
}

func newBudgetTracker(b Budget) *budgetTracker {
	return &budgetTracker{limits: b}
}

// BudgetShare is an externally owned budget charge account that several
// Run calls charge together (RunConfig.BudgetShare): the sharded
// coordinator hands every per-shard run the same share, so the caps
// bound the query's total work across all shards. The zero value is not
// useful; construct with NewBudgetShare.
type BudgetShare struct {
	budgetTracker
}

// NewBudgetShare returns a shared charge account enforcing b, or nil
// when b sets no caps (so callers can pass the result straight into
// RunConfig.BudgetShare unconditionally).
func NewBudgetShare(b Budget) *BudgetShare {
	if !b.limited() {
		return nil
	}
	return &BudgetShare{budgetTracker{limits: b}}
}

// Exhausted reports whether any cap of the share has been crossed.
func (b *BudgetShare) Exhausted() bool {
	return b != nil && b.exhausted.Load()
}

// overBudget charges the run's uncharged metric growth against the
// budget and reports whether the budget is now exhausted. Called from
// the poll points only; the kernels' inner loops never see it. The
// charged* cursors make each Metrics unit count exactly once no matter
// how often polling happens.
func (r *run) overBudget() bool {
	b := r.budget
	if b == nil {
		return false
	}
	if b.exhausted.Load() {
		r.exhausted = true
		return true
	}
	m := r.m
	if m == nil {
		return false
	}
	over := false
	if d := int64(m.JoinBranches) - r.chargedBranches; d > 0 {
		r.chargedBranches = int64(m.JoinBranches)
		if b.limits.JoinBranches > 0 && b.branches.Add(d) > b.limits.JoinBranches {
			over = true
		}
	}
	if d := int64(m.HashProbes) - r.chargedProbes; d > 0 {
		r.chargedProbes = int64(m.HashProbes)
		if b.limits.HashProbes > 0 && b.probes.Add(d) > b.limits.HashProbes {
			over = true
		}
	}
	if d := int64(m.BlocksEmitted) - r.chargedBlocks; d > 0 {
		r.chargedBlocks = int64(m.BlocksEmitted)
		if b.limits.Blocks > 0 && b.blocks.Add(d) > b.limits.Blocks {
			over = true
		}
	}
	if over {
		b.exhausted.Store(true)
		r.exhausted = true
	}
	return over
}

// PanicError is a recovered evaluation panic: the panic value plus the
// goroutine stack at the recover point. The engine's query boundary and
// the shard coordinator return it (wrapped by the engine into its
// ErrInternal) instead of letting an evaluation panic kill the process.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("topk: recovered panic: %v", e.Value)
}
