// Package topk implements TriniT's top-k query processor (§4): an
// adaptation of the incremental top-k algorithm of Theobald et al. [11].
//
// The processor consumes the rewrite space of a query (original query plus
// relaxations, in descending derivation-weight order) and merges their
// answers incrementally:
//
//   - a rewrite is evaluated only while its weight — an upper bound on the
//     score of any answer it can produce — exceeds the current k-th answer
//     score ("invoking a relaxation only when it can contribute to the
//     top-k answers");
//   - within a rewrite, per-pattern match lists are accessed in sorted
//     order of emission probability, and join branches are pruned as soon
//     as their best-possible completion falls below the k-th answer score
//     ("going only as far as necessary into each triple pattern index
//     list").
//
// Joins run on one kernel: the block-at-a-time join over hash buckets of
// semi-join-reduced match lists, in the greedy planner's order
// (block.go, join.go, planner.go). The same evaluator also runs in
// exhaustive mode — materialising every rewrite completely — which is
// the cost baseline of experiment E5 and must rank byte-identically to
// incremental mode. The correctness oracle both modes are tested against
// is internal/reference, a nested-loop evaluator with none of the
// kernel's machinery, imported only by tests.
package topk

import (
	"context"
	"sort"
	"strconv"

	"trinit/internal/faultinject"
	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/relax"
	"trinit/internal/score"
	"trinit/internal/store"
)

// Mode selects the processing strategy.
type Mode int

const (
	// Incremental is the paper's adaptive top-k strategy.
	Incremental Mode = iota
	// Exhaustive evaluates every rewrite fully; the baseline.
	Exhaustive
)

// Options configure evaluation.
type Options struct {
	// K is the number of answers to return (default 10).
	K int
	// Mode selects incremental or exhaustive processing.
	Mode Mode
	// MinTokenSim is the token-slot similarity threshold, forwarded to
	// the pattern matcher (0 = matcher default).
	MinTokenSim float64
	// UniformConf and NoNormalize ablate the tf-like and idf-like
	// effects of the scoring model (experiment E8); forwarded to the
	// pattern matcher.
	UniformConf bool
	NoNormalize bool
}

// RunConfig carries the per-call knobs of one Run. Every field is
// optional; zero values keep the executor's configured defaults. Because
// the overrides live in the call and not in the executor, pooled
// executors carry no per-query option state between borrows.
type RunConfig struct {
	// K overrides the executor's default answer count when > 0.
	K int
	// Mode overrides the processing strategy when ModeSet is true (the
	// Mode zero value, Incremental, is a real mode, so presence needs
	// its own flag).
	Mode    Mode
	ModeSet bool
	// NoTrace skips building the per-rewrite processing trace entirely
	// — no RewriteTrace allocations, no query re-rendering — for
	// callers that never read LastTrace. LastTrace returns an empty
	// slice after a NoTrace run.
	NoTrace bool
	// Emit, when non-nil, receives every answer the processor admits
	// into — or improves within — the current top-k, as it happens: the
	// provisional-answer stream behind QueryStream. It is called
	// synchronously from the evaluating goroutine; the answer's maps and
	// slices are freshly allocated and safe to retain. Provisional
	// events are best-effort: an answer that merely ties the k-th score
	// can enter the final ranking through the deterministic key
	// tie-break without ever being admitted to the score-only heap, so
	// consumers must treat the final answers as authoritative.
	Emit func(Answer)
	// Budget caps the work of this call (see Budget); the zero value is
	// unlimited. A run that spends its budget stops at the next poll
	// point and returns the answers found so far with
	// ErrBudgetExhausted — a sound partial top-k, never an empty error.
	Budget Budget
	// BudgetShare, when non-nil, replaces Budget with an externally
	// owned charge account shared across several Run calls — the sharded
	// coordinator's "one budget for the whole query" semantics. When
	// set, Budget is ignored.
	BudgetShare *BudgetShare
	// Bound, when non-nil, is an external k-th-score bound this run
	// reads in addition to — and publishes into — its own local top-k
	// threshold: a sharded coordinator hands every shard the same
	// BoundBroadcast so each shard prunes against the best k-th score any
	// shard has proven. A stale remote bound is only ever lower than the
	// true global bound, so pruning against it does extra work but never
	// drops an answer.
	Bound SharedBound
}

// SharedBound is an externally shared k-th-score bound: Publish offers a
// shard's current k-th best score (implementations keep the maximum),
// and Load returns the best score published so far (0 before any
// Publish). Implementations must be safe for concurrent use; the engine's
// implementation is shard.BoundBroadcast.
type SharedBound interface {
	Publish(score float64)
	Load() float64
}

// cancelCheckInterval is how many join rows may be emitted between two
// polls of the context's done channel. The join kernel charges whole
// blocks at block boundaries, so a cancelled Run returns within one
// interval plus one block (or at the next rewrite boundary, whichever
// comes first) — well under a millisecond of join work.
const cancelCheckInterval = 256

// Answer is one ranked result: a binding of the query's projected
// variables with its score and best derivation.
type Answer struct {
	// Bindings maps projected variable names to bound terms.
	Bindings map[string]rdf.TermID
	// Score is the maximal score over all derivations of this answer.
	Score float64
	// Derivation is the derivation that achieved Score.
	Derivation Derivation
}

// Derivation records how an answer was obtained — the raw material of the
// demo's answer-explanation feature.
type Derivation struct {
	// Rewrite is the rewrite (query + applied rules + weight) that
	// produced the answer.
	Rewrite relax.Rewrite
	// Triples holds one matched triple per pattern of Rewrite.Query, in
	// pattern order.
	Triples []store.ID
	// PatternProbs holds the per-pattern emission probabilities.
	PatternProbs []float64
	// Plan holds the pattern indices in the join order the planner
	// chose. Shared, read-only.
	Plan []int
}

// Metrics quantify the work done, for the E5 efficiency experiment.
type Metrics struct {
	// RewritesTotal is the size of the supplied rewrite space.
	RewritesTotal int
	// RewritesEvaluated counts rewrites whose patterns were matched.
	RewritesEvaluated int
	// RewritesSkipped counts rewrites pruned by the weight bound.
	RewritesSkipped int
	// SortedAccesses counts entries consumed from the score-sorted
	// per-pattern match lists during join processing — the paper's
	// "going only as far as necessary into each triple pattern index
	// list" is visible as a reduction of this number.
	SortedAccesses int
	// IndexScanned counts posting-list entries touched while building
	// the per-pattern lists (the index-lookup cost; shared lists are
	// built once and reused across rewrites).
	IndexScanned int
	// PatternsMatched counts per-pattern list constructions; cache hits
	// across rewrites do not count.
	PatternsMatched int
	// JoinBranches counts candidate combinations explored during joins.
	JoinBranches int
	// PrunedBranches counts join branches cut by the score bound.
	PrunedBranches int
	// HashProbes counts hash-index bucket lookups the join kernel issued
	// in place of full match-list scans: at each depth with a variable
	// already bound by the prefix, one probe replaces a scan.
	HashProbes int
	// SemiJoinDropped counts match-list entries pruned by the semi-join
	// reduction pass before join enumeration started. Reductions are
	// cached per pattern set alongside the match lists; cache hits
	// across rewrites and queries do not re-count (mirroring
	// IndexScanned and PatternsMatched).
	SemiJoinDropped int
	// BlocksEmitted counts join-frontier blocks the join kernel handed
	// from one join depth to the next (the final depth's blocks go to
	// answer materialisation), single-pattern rewrites included.
	BlocksEmitted int
	// BlockRowsFiltered counts candidate rows the join kernel cut with
	// its score bound before extending them: every cut drops the whole
	// tail of a candidate column at once and counts as one
	// PrunedBranches event, the rows it drops count here.
	BlockRowsFiltered int
	// TokenResolutions counts token slots resolved through the inverted
	// token index while building match lists (cache hits across rewrites
	// do not count, mirroring IndexScanned).
	TokenResolutions int
	// ScanFallbacks counts token-slot patterns whose lists were built by
	// the wildcard scan instead of token resolution: the candidate
	// cross-product exceeded the matcher's cutoff, scanning was provably
	// cheaper, or MinTokenSim <= 0 left the index unusable.
	ScanFallbacks int
	// CrossShardPrunes counts prune decisions (cut join branches and
	// skipped rewrites) that fired only because of a remote bound
	// (RunConfig.Bound) raised above this run's own k-th score — the
	// work another shard's answers saved this one. Zero without a shared
	// bound. Like the other bound-dependent counters it may vary run to
	// run, since shards publish their bounds concurrently.
	CrossShardPrunes int
}

// Add accumulates o into m, field by field, RewritesTotal included — the
// coordinator-side aggregation across shards, where every shard ran the
// full rewrite space against its own partition.
func (m *Metrics) Add(o Metrics) {
	m.RewritesTotal += o.RewritesTotal
	m.RewritesEvaluated += o.RewritesEvaluated
	m.RewritesSkipped += o.RewritesSkipped
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

// RewriteTrace records what happened to one rewrite during processing —
// the "internal steps" view of the §5 demo.
type RewriteTrace struct {
	// Query is the rewritten query text.
	Query string
	// Weight is the derivation weight.
	Weight float64
	// Rules lists the IDs of the applied rules.
	Rules []string
	// Status is "evaluated", "skipped (weight bound)", "no matches",
	// "no matches (semi-join)", "missing projection", "canceled" (the
	// run's context was cancelled at or before this rewrite), or
	// "budget" (the run's cost budget was exhausted at or before this
	// rewrite).
	Status string
	// PatternMatches holds the match-list length per pattern (only for
	// evaluated rewrites; patterns skipped by a planner early-abort
	// stay 0).
	PatternMatches []int
	// Plan holds the pattern indices in the order the planner processed
	// them (nil when the rewrite was not matched).
	Plan []int
	// SemiJoinKept holds the per-pattern number of match-list entries
	// that survived the semi-join reduction pass, in pattern order (nil
	// when the pass did not run).
	SemiJoinKept []int
	// Answers counts answers created or improved by this rewrite.
	Answers int
}

// Executor runs top-k processing for one query at a time against a frozen
// store, fetching score-sorted per-pattern match lists from a shared
// Cache. The executor itself carries only per-query state (the trace of
// its latest Evaluate call), so an engine can keep a pool of executors
// and run queries concurrently — all heavy state lives in the store and
// the cache, both safe for concurrent readers. A single Executor must not
// be shared by concurrent Evaluate calls.
type Executor struct {
	st      *store.Store
	opts    Options
	matcher *score.Matcher
	cache   *Cache
	// lastTrace records the rewrite-by-rewrite processing steps of the
	// most recent Evaluate call.
	lastTrace []RewriteTrace
	// scratch is the run's evaluation scratch, kept on the executor so
	// repeated Run calls reuse the buffers, memoised slot plans and
	// pattern keys of earlier queries. Run is single-goroutine per
	// executor (it already owns lastTrace).
	scratch evalScratch
}

// NewExecutor returns an executor over a shared match-list cache. The
// store must be frozen. Executors built over the same cache share match
// lists and planner estimates; their matcher options must agree, since
// cached lists are keyed by pattern text only.
func NewExecutor(st *store.Store, cache *Cache, opts Options) *Executor {
	if opts.K <= 0 {
		opts.K = 10
	}
	if cache == nil {
		cache = NewCache(0)
	}
	matcher := MatcherFor(st, opts)
	// Token resolutions are shared through the cache: the planner's
	// selectivity estimates and the matcher's list builds reuse one
	// inverted-index lookup per distinct token.
	matcher.Resolver = cache.tokenResolver(st)
	return &Executor{
		st:      st,
		opts:    opts,
		matcher: matcher,
		cache:   cache,
	}
}

// Evaluator is an Executor bundled with a private match-list cache — the
// original single-goroutine API, kept for baselines, experiments and
// tests. The cache persists across Evaluate calls, warming up like the
// precomputed posting lists of the original ElasticSearch backend.
type Evaluator struct {
	Executor
}

// New returns an evaluator with its own cache. The store must be frozen.
func New(st *store.Store, opts Options) *Evaluator {
	return &Evaluator{Executor: *NewExecutor(st, NewCache(0), opts)}
}

// Cache returns the executor's match-list cache.
func (ev *Executor) Cache() *Cache { return ev.cache }

// SetMassHook installs a normalisation-mass override on the executor's
// matcher (see score.Matcher.Mass): the sharded coordinator points every
// per-shard executor at the pattern's corpus-wide match mass, so shard
// match lists carry globally normalised emission probabilities. Must be
// set before the executor serves queries; executors sharing a cache must
// agree on the hook, since cached lists are keyed by pattern text only.
func (ev *Executor) SetMassHook(f func(p query.Pattern, local float64) float64) {
	ev.matcher.Mass = f
}

// MatcherFor returns a fresh matcher configured exactly as NewExecutor
// configures its internal one (token-similarity floor, scoring
// ablations), minus the cache-backed token resolver. The sharded
// coordinator uses it to compute corpus-wide normalisation masses with
// the same configuration the per-shard executors match with.
func MatcherFor(st *store.Store, opts Options) *score.Matcher {
	m := score.NewMatcher(st)
	if opts.MinTokenSim > 0 {
		m.MinTokenSim = opts.MinTokenSim
	}
	m.UniformConf = opts.UniformConf
	m.NoNormalize = opts.NoNormalize
	return m
}

// LastTrace returns the internal processing steps of the most recent
// Evaluate call (§5: "TriniT can show internal steps").
func (ev *Executor) LastTrace() []RewriteTrace {
	return append([]RewriteTrace(nil), ev.lastTrace...)
}

// TraceLen returns the number of trace entries of the most recent
// Evaluate call without copying the trace — for callers that only need
// the length (or use it to pre-size a conversion) before deciding
// whether to pay for the LastTrace copy.
func (ev *Executor) TraceLen() int { return len(ev.lastTrace) }

// Evaluate processes the rewrites of q (the first of which must be the
// original query; the list must be sorted by descending weight, as
// produced by relax.Expander) and returns the top-k answers sorted by
// descending score, ties broken by binding key. It is Run without a
// context or per-call overrides.
func (ev *Executor) Evaluate(q *query.Query, rewrites []relax.Rewrite) ([]Answer, Metrics) {
	answers, m, _ := ev.Run(context.Background(), q, rewrites, RunConfig{})
	return answers, m
}

// Run is Evaluate with request scoping: ctx cancels the call, cfg
// overrides the executor's K and Mode for this call only and may attach
// a provisional-answer emit hook. Cancellation is checked at every
// rewrite boundary and every cancelCheckInterval join branches; a
// cancelled Run returns the answers found so far (ranked as usual)
// together with ctx.Err(), so callers can surface a partial result.
func (ev *Executor) Run(ctx context.Context, q *query.Query, rewrites []relax.Rewrite, cfg RunConfig) ([]Answer, Metrics, error) {
	opts := ev.opts
	if cfg.K > 0 {
		opts.K = cfg.K
	}
	if cfg.ModeSet {
		opts.Mode = cfg.Mode
	}

	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	r := &run{Executor: ev, opts: opts, done: done, emit: cfg.Emit, noTrace: cfg.NoTrace}
	switch {
	case cfg.BudgetShare != nil:
		r.budget = &cfg.BudgetShare.budgetTracker
	case cfg.Budget.limited():
		r.budget = newBudgetTracker(cfg.Budget)
	}
	r.sc = ev.scratch
	defer func() {
		// Drop the last rewrite's env so the parked scratch does not
		// pin this run's top-k state and metrics until the next query.
		r.sc.env = joinEnv{}
		ev.scratch = r.sc
	}()

	proj := q.ProjectedVars()
	k := opts.K
	if q.Limit > 0 && q.Limit < k {
		k = q.Limit
	}

	st := newState(k)
	st.remote = cfg.Bound
	var m Metrics
	m.RewritesTotal = len(rewrites)
	r.m = &m
	ev.lastTrace = ev.lastTrace[:0]
	var scratch RewriteTrace
	trace := func(rw relax.Rewrite) *RewriteTrace {
		if cfg.NoTrace {
			// Hand out a reusable throwaway so evalRewrite can fill
			// its fields unconditionally without any trace surviving.
			scratch = RewriteTrace{}
			return &scratch
		}
		ids := make([]string, len(rw.Applied))
		for i, r := range rw.Applied {
			ids[i] = r.ID
		}
		ev.lastTrace = append(ev.lastTrace, RewriteTrace{
			Query:  rw.Query.String(),
			Weight: rw.Weight,
			Rules:  ids,
		})
		return &ev.lastTrace[len(ev.lastTrace)-1]
	}

	for ri, rw := range rewrites {
		if r.pollCancel() {
			status := "canceled"
			if r.exhausted {
				status = "budget"
			}
			for _, rest := range rewrites[ri:] {
				trace(rest).Status = status
			}
			break
		}
		if opts.Mode == Incremental && rw.Weight < st.threshold() {
			// No later rewrite can contribute: weights descend, and the
			// threshold stays 0 until k answers exist. The skip is sound
			// bit for bit: a score is fl(W·x) with x a product of
			// probabilities, so x <= 1 and, multiplication being
			// monotone, fl(W·x) <= fl(W·1) = W. The bound is strict so
			// that rewrites able to *tie* the k-th score still run —
			// ties are broken deterministically by binding key, so
			// dropping a tied answer exhaustive mode would have kept
			// could change the result set.
			m.RewritesSkipped = len(rewrites) - ri
			if st.crossShard(rw.Weight) {
				// Only the remote bound proved the tail dominated.
				m.CrossShardPrunes += len(rewrites) - ri
			}
			for _, skipped := range rewrites[ri:] {
				trace(skipped).Status = "skipped (weight bound)"
			}
			break
		}
		m.RewritesEvaluated++
		r.evalRewrite(rw, ri, proj, st, &m, trace(rw))
	}

	out := st.ranked(k)
	var err error
	switch {
	case r.exhausted:
		err = ErrBudgetExhausted
	case r.canceled && ctx != nil:
		err = ctx.Err()
	}
	return out, m, err
}

// run bundles the per-call state of one Run: the effective options (the
// executor's defaults with the RunConfig overrides applied), the
// cancellation gate, the emit hook and the evaluation scratch buffers.
// Methods that depend on per-call options hang off run; everything
// shared and immutable stays on the embedded Executor.
type run struct {
	*Executor
	opts Options
	// done is the context's done channel (nil when the context can
	// never be cancelled, which skips all polling).
	done <-chan struct{}
	emit func(Answer)
	// noTrace marks that trace entries are throwaways, so evalRewrite
	// skips the defensive copies of its scratch slices into them.
	noTrace bool
	// branchTick counts join rows since the last poll of done;
	// pollCancelEvery polls every cancelCheckInterval ticks.
	branchTick int
	canceled   bool
	// m points at the Metrics this run accumulates into — the charge
	// source of budget enforcement. budget is the run's shared charge
	// account (nil = unlimited, skipping all budget work); exhausted
	// latches locally once the budget is spent, and the charged*
	// cursors mark how much of m has been charged so far.
	m               *Metrics
	budget          *budgetTracker
	exhausted       bool
	chargedBranches int64
	chargedProbes   int64
	chargedBlocks   int64
	// sc holds the buffers evalRewrite reuses across rewrites.
	sc evalScratch
}

// evalScratch is the reusable buffer set of evalRewrite: everything an
// evaluation needs that does not outlive the rewrite. Retained data —
// trace slices, answer bindings and derivations — is copied out, and
// only when actually retained. Reusing these across the rewrites of a
// run removes the bulk of the per-rewrite allocations (visible with
// -benchmem on the E5 benchmarks).
type evalScratch struct {
	lists []*patternList
	sizes []int
	order []int
	// heads[d] is the head (best surviving) probability of the pattern
	// at join depth d — the per-depth factors of the score bound.
	heads []float64
	// vals is the binding array a complete row is gathered into,
	// indexed by varPlan slot; rdf.NoTerm marks an unbound slot.
	vals    []rdf.TermID
	triples []store.ID
	probs   []float64
	// projSlots/fLHS/fRHS are the rewrite's projection and filter
	// variables resolved to slots (see evalRewrite).
	projSlots []int32
	fLHS      []int32
	fRHS      []int32
	keyBuf    []byte
	semiKey   []byte
	// sigBuf/plans/patStr are the run-lifetime memos of varPlanFor and
	// patKey (slots.go).
	sigBuf []byte
	plans  map[string]*varPlan
	patStr map[query.Pattern]string
	// joinOut/joinUsed/joinBound are joinOrderInto scratch.
	joinOut   []int
	joinUsed  []bool
	joinBound []bool
	// blocks[d] is the depth-d join frontier of the block kernel;
	// accBufs[d] its per-depth probability-column scratch (per depth, so
	// a recursive flush of a full block cannot clobber the column of
	// the row still being extended).
	blocks  []*joinBlock
	accBufs [][]float64
	env     joinEnv
}

// scratchSlice returns s resized to n, reusing its capacity. Elements
// are stale; callers overwrite what they read.
func scratchSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// pollCancel polls the stop conditions unconditionally — used at
// rewrite boundaries, which are rare and may follow long join phases.
// It reports true when the run must unwind: context cancelled or cost
// budget exhausted (callers distinguish via r.canceled/r.exhausted).
func (r *run) pollCancel() bool {
	if r.canceled || r.exhausted {
		return true
	}
	if r.overBudget() {
		return true
	}
	if r.done == nil {
		return false
	}
	select {
	case <-r.done:
		r.canceled = true
	default:
	}
	return r.canceled
}

// pollCancelEvery accounts n units of work against the cancellation
// interval and polls the done channel once the budget is spent, keeping
// the common case a counter add. The join kernel charges a whole
// emitted block at its boundary (n = the block's row count) instead of
// ticking inside the inner loop; blocks are capped at maxBlockRows, so
// cancellation latency stays bounded by a few blocks of join work.
func (r *run) pollCancelEvery(n int) bool {
	if r.canceled || r.exhausted {
		return true
	}
	if r.done == nil && r.budget == nil {
		return false
	}
	r.branchTick += n
	if r.branchTick < cancelCheckInterval {
		return false
	}
	r.branchTick = 0
	return r.pollCancel()
}

// state tracks discovered answers and the k-th score threshold. The
// threshold is maintained incrementally: top is a min-heap over the scores
// of the current best k answers, so every answer write costs O(log k) and
// every threshold read is O(1) — the seed resorted all answer scores on
// every read after a write. A state is private to one run.
type state struct {
	answers map[string]*answerEntry
	k       int
	// top is the min-heap of the best min(k, len(answers)) answers; pos
	// maps an answer key to its heap index.
	top []heapEntry
	pos map[string]int
	// kth is the current k-th best score (0 while fewer than k answers
	// exist), re-derived from the heap root after every heap update.
	kth float64
	// remote, when non-nil, is an externally shared bound
	// (RunConfig.Bound): threshold reads take the max of the local and
	// remote values, and publish forwards every local rise. A remote
	// bound can only be lower than or equal to the final global k-th
	// score — each shard's k-th score only rises towards its final
	// value, which is itself <= the global one — so a stale read prunes
	// less, never wrongly.
	remote SharedBound
}

// answerEntry is a stored answer under its ranking key.
type answerEntry struct {
	key string
	a   Answer
}

type heapEntry struct {
	key   string
	score float64
}

func newState(k int) *state {
	return &state{
		answers: make(map[string]*answerEntry),
		k:       k,
		top:     make([]heapEntry, 0, k),
		pos:     make(map[string]int, k),
	}
}

// threshold returns the current k-th best answer score, or 0 when fewer
// than k answers exist: the join kernel's score-bound read. With a
// shared remote bound attached it returns the max of the local and
// remote values — another shard's proven k-th score prunes here exactly
// like a local one.
func (s *state) threshold() float64 {
	t := s.kth
	if s.remote != nil {
		if rt := s.remote.Load(); rt > t {
			return rt
		}
	}
	return t
}

// crossShard reports whether a prune at the given bound is attributable
// to the remote shared bound alone: the branch or rewrite would have
// survived the local threshold. Callers invoke it only on the prune
// path.
func (s *state) crossShard(bound float64) bool {
	return s.remote != nil && bound >= s.kth
}

// remoteAhead reports whether the remote bound currently exceeds the
// local one. The block kernel captures it alongside its block-level
// bound snapshot as the attribution proxy for tail cuts (the cut
// candidates' individual bounds are not materialised there).
func (s *state) remoteAhead() bool {
	return s.remote != nil && s.remote.Load() > s.kth
}

// publish re-derives the threshold from the heap root and, when a
// shared remote bound is attached, broadcasts the rise to the other
// shards.
func (s *state) publish() {
	if len(s.top) >= s.k {
		v := s.top[0].score
		s.kth = v
		if s.remote != nil {
			s.remote.Publish(v)
		}
	}
}

// record stores or improves an answer, materialising it with mk only if
// the write actually lands — rejected derivations cost no allocation.
// key is a scratch buffer; record copies it only when the answer is
// new. Derivations arrive in canonical order (rewrites by descending
// weight, bindings in enumeration order), so among equal-scoring
// derivations of one answer the first wins. wrote reports that the
// answer was created or improved; admitted reports that the write
// landed in the current top-k — the signal the emit hook streams.
func (s *state) record(key []byte, score float64, mk func() Answer) (wrote, admitted bool) {
	if cur, ok := s.answers[string(key)]; ok {
		if score <= cur.a.Score {
			return false, false
		}
		// Max-over-derivations semantics (§4).
		cur.a = mk()
		return true, s.bump(cur.key, score)
	}
	e := &answerEntry{key: string(key), a: mk()}
	s.answers[e.key] = e
	return true, s.bump(e.key, score)
}

// bump inserts key into the top-k heap or raises its score in place,
// reporting whether the key sits in the heap afterwards. Scores only
// ever increase (max-over-derivations), so an in-heap update sifts
// towards the leaves only.
func (s *state) bump(key string, score float64) bool {
	if i, ok := s.pos[key]; ok {
		s.top[i].score = score
		s.siftDown(i)
		s.publish()
		return true
	}
	if len(s.top) < s.k {
		s.top = append(s.top, heapEntry{key, score})
		s.pos[key] = len(s.top) - 1
		s.siftUp(len(s.top) - 1)
		s.publish()
		return true
	}
	if score <= s.top[0].score {
		return false
	}
	delete(s.pos, s.top[0].key)
	s.top[0] = heapEntry{key, score}
	s.pos[key] = 0
	s.siftDown(0)
	s.publish()
	return true
}

// ranked returns the top-k answers sorted by descending score, ties
// broken by binding key. The map key IS the answer key, so no keys are
// re-derived during sorting.
func (s *state) ranked(k int) []Answer {
	rs := make([]*answerEntry, 0, len(s.answers))
	for _, e := range s.answers {
		rs = append(rs, e)
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].a.Score != rs[j].a.Score {
			return rs[i].a.Score > rs[j].a.Score
		}
		return rs[i].key < rs[j].key
	})
	if len(rs) > k {
		rs = rs[:k]
	}
	out := make([]Answer, len(rs))
	for i, e := range rs {
		out[i] = e.a
	}
	return out
}

func (s *state) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if s.top[p].score <= s.top[i].score {
			return
		}
		s.swap(i, p)
		i = p
	}
}

func (s *state) siftDown(i int) {
	for {
		small := i
		if l := 2*i + 1; l < len(s.top) && s.top[l].score < s.top[small].score {
			small = l
		}
		if r := 2*i + 2; r < len(s.top) && s.top[r].score < s.top[small].score {
			small = r
		}
		if small == i {
			return
		}
		s.swap(i, small)
		i = small
	}
}

func (s *state) swap(i, j int) {
	s.top[i], s.top[j] = s.top[j], s.top[i]
	s.pos[s.top[i].key] = i
	s.pos[s.top[j].key] = j
}

// AnswerKey appends the canonical ranking key of an answer's bindings
// over the projected variables to buf — the exact key the join kernel
// feeds the top-k state, exported so a coordinator merging rankings from
// several executors breaks score ties precisely like a single run.
func AnswerKey(buf []byte, b map[string]rdf.TermID, proj []string) []byte {
	return appendAnswerKey(buf, b, proj)
}

// appendAnswerKey appends the canonical key of a binding over the
// projected variables to buf, reusing its capacity across branches.
func appendAnswerKey(buf []byte, b map[string]rdf.TermID, proj []string) []byte {
	for _, v := range proj {
		buf = append(buf, v...)
		buf = append(buf, '=')
		buf = strconv.AppendUint(buf, uint64(b[v]), 10)
		buf = append(buf, ';')
	}
	return buf
}

// joinEnv bundles the per-rewrite inputs the join kernel consumes —
// the rewrite, its slot plan, match lists, join order, semi-join
// survivor masks, per-depth head probabilities and the top-k state —
// plus the counter the kernel advances: answers, the writes that landed,
// for the trace. One env lives in the run's scratch and is rebuilt per
// rewrite.
type joinEnv struct {
	rw        relax.Rewrite
	n         int
	proj      []string
	projSlots []int32
	filters   []query.Filter
	fLHS      []int32
	fRHS      []int32
	vp        *varPlan
	lists     []*patternList
	order     []int
	alive     [][]bool
	heads     []float64
	state     *state
	m         *Metrics
	planFn    func(order []int) []int
	answers   int
}

// evalRewrite matches all patterns of one rewrite (index ri in the
// rewrite space) and joins them, filling rt with the status,
// per-pattern match counts, processed pattern order, semi-join survivor
// counts and answer count. It aborts early (leaving r.canceled set and
// the trace status "canceled") when the run's context is cancelled
// mid-join. All transient buffers come from r.sc and are reused across
// rewrites; anything that outlives the call — trace slices, answer
// bindings and derivations — is copied out, and only when retained.
//
// Every rewrite, single-pattern ones included, takes the same path: the
// planner orders the list builds by estimated selectivity, the join
// order is refined by exact list length and connectivity, the semi-join
// pass reduces the lists, and the block-at-a-time kernel (blockJoin,
// block.go) enumerates the bindings over hash buckets, extending a
// columnar frontier a whole block per depth and converging in
// recordBinding.
func (r *run) evalRewrite(rw relax.Rewrite, ri int, proj []string, st *state, m *Metrics, rt *RewriteTrace) {
	ev := r.Executor
	sc := &r.sc
	pats := rw.Query.Patterns
	n := len(pats)
	defer func() {
		if r.exhausted {
			rt.Status = "budget"
		} else if r.canceled {
			rt.Status = "canceled"
		}
	}()
	if faultinject.Enabled() {
		faultinject.Fire(faultinject.SiteRewriteEval, strconv.Itoa(ri))
	}

	// Resolve this pattern set's variables to dense slots (memoised per
	// run): the kernel binds variables by slot index, and the projection
	// and filter variables resolve once, here, instead of per branch.
	vp := r.varPlanFor(pats)

	// Skip rewrites that cannot bind every projected variable.
	sc.projSlots = scratchSlice(sc.projSlots, len(proj))
	for i, v := range proj {
		s := vp.slotOf(v)
		if s < 0 {
			rt.Status = "missing projection"
			return
		}
		sc.projSlots[i] = s
	}

	// Filter operands: the variable's slot, or -1 for a constant RHS and
	// -2 for a variable the rewrite does not bind (which resolves to the
	// invalid term, like a zero-value map lookup).
	filters := rw.Query.Filters
	sc.fLHS = scratchSlice(sc.fLHS, len(filters))
	sc.fRHS = scratchSlice(sc.fRHS, len(filters))
	for i, f := range filters {
		sc.fLHS[i] = vp.slotOf(f.Var)
		sc.fRHS[i] = -1
		if f.RHSVar != "" {
			if s := vp.slotOf(f.RHSVar); s >= 0 {
				sc.fRHS[i] = s
			} else {
				sc.fRHS[i] = -2
			}
		}
	}

	// Plan: build match lists in ascending estimated selectivity, so an
	// empty pattern aborts the rewrite before its siblings' lists are
	// materialised.
	buildOrder := ev.plan(pats, r.patKey)

	// tracePlan is what surfaces in RewriteTrace.Plan and
	// Derivation.Plan: one stable copy per rewrite, materialised lazily
	// the first time something retains it. Every call within one rewrite
	// passes the same order slice (aborts before the join-order
	// refinement return immediately), so one memo is enough.
	var planCopy []int
	tracePlan := func(order []int) []int {
		if planCopy == nil {
			planCopy = append([]int(nil), order...)
		}
		return planCopy
	}
	// setTrace fills the retained trace fields, skipping the defensive
	// scratch copies when the trace is a throwaway.
	setTrace := func(status string, order []int) {
		rt.Status = status
		if r.noTrace {
			return
		}
		rt.PatternMatches = append([]int(nil), sc.sizes[:n]...)
		rt.Plan = tracePlan(order)
	}

	sc.lists = scratchSlice(sc.lists, n)
	sc.sizes = scratchSlice(sc.sizes, n)
	lists, sizes := sc.lists, sc.sizes
	for i := 0; i < n; i++ {
		lists[i], sizes[i] = nil, 0
	}
	for _, pi := range buildOrder {
		// List builds can dominate a rewrite's cost (full-range scan
		// fallbacks), so cancellation is polled per pattern — not only
		// at rewrite boundaries and join branches.
		if r.pollCancel() {
			return
		}
		p := pats[pi]
		key := r.patKey(p)
		pl, stats, built := ev.cache.get(key, func() ([]score.Match, score.MatchStats) {
			faultinject.Fire(faultinject.SiteListBuild, key)
			return ev.matcher.MatchPatternCounted(p)
		})
		if built {
			m.PatternsMatched++
			m.IndexScanned += stats.IndexScanned
			m.TokenResolutions += stats.TokenResolutions
			if stats.ScanFallback {
				m.ScanFallbacks++
			}
		}
		lists[pi] = pl
		sizes[pi] = len(pl.matches)
		if len(pl.matches) == 0 {
			setTrace("no matches", buildOrder)
			return
		}
	}

	// Join order: the planner's estimate order, refined by the exact
	// list lengths now known (stable, so equal lengths keep the planned
	// order), then reordered so every pattern shares a variable with the
	// already-joined prefix where the pattern graph allows it (the
	// adjacency comes pre-resolved from the varPlan).
	sc.order = append(sc.order[:0], buildOrder...)
	order := sc.order
	sort.SliceStable(order, func(a, b int) bool {
		return len(lists[order[a]].matches) < len(lists[order[b]].matches)
	})
	if n > 2 {
		sc.joinOut = scratchSlice(sc.joinOut, n)
		sc.joinUsed = scratchSlice(sc.joinUsed, n)
		sc.joinBound = scratchSlice(sc.joinBound, len(vp.names))
		for i := range sc.joinUsed {
			sc.joinUsed[i] = false
		}
		for i := range sc.joinBound {
			sc.joinBound[i] = false
		}
		order = vp.joinOrderInto(order, sc.joinOut, sc.joinUsed, sc.joinBound)
		sc.joinOut = order
	}

	// Semi-join reduction: prune entries with no join partner in some
	// neighbouring pattern before enumeration. An emptied list proves
	// the rewrite can produce no complete binding. The reduction is a
	// pure function of the (immutable, cached) lists, so its result is
	// fetched from the cache's side map and computed once per pattern
	// set, not once per rewrite evaluation. A single pattern has no
	// neighbour to reduce against.
	var alive [][]bool
	var semiHead []float64
	if n > 1 {
		if r.pollCancel() {
			return
		}
		sc.semiKey = sc.semiKey[:0]
		for _, p := range pats {
			sc.semiKey = append(sc.semiKey, r.patKey(p)...)
			sc.semiKey = append(sc.semiKey, 0)
		}
		res := ev.cache.semiJoin(sc.semiKey, lists[:n], m)
		alive = res.alive
		semiHead = res.headProb
		rt.SemiJoinKept = res.liveCount
		for _, c := range res.liveCount {
			if c == 0 {
				setTrace("no matches (semi-join)", order)
				return
			}
		}
	}

	// heads[d] = head probability of the pattern at join depth d: the
	// best factor any completion can draw from that depth. After
	// semi-join reduction the head is the best *surviving* entry, still
	// an upper bound on any completion.
	sc.heads = scratchSlice(sc.heads, n)
	for d, pi := range order {
		sc.heads[d] = lists[pi].matches[0].Prob
		if semiHead != nil {
			sc.heads[d] = semiHead[pi]
		}
	}

	e := &sc.env
	*e = joinEnv{
		rw:        rw,
		n:         n,
		proj:      proj,
		projSlots: sc.projSlots,
		filters:   filters,
		fLHS:      sc.fLHS,
		fRHS:      sc.fRHS,
		vp:        vp,
		lists:     lists,
		order:     order,
		alive:     alive,
		heads:     sc.heads,
		state:     st,
		m:         m,
		planFn:    tracePlan,
	}
	sc.vals = scratchSlice(sc.vals, len(vp.names))
	sc.triples = scratchSlice(sc.triples, n)
	sc.probs = scratchSlice(sc.probs, n)
	r.blockJoin(e)
	setTrace("evaluated", order)
	rt.Answers = e.answers
}

// passFilters applies the rewrite's FILTER constraints to a complete
// binding. vals is indexed by slot; operand slots below zero resolve to
// the invalid term, like a zero-value map lookup of a variable the
// rewrite does not bind.
func (r *run) passFilters(e *joinEnv, vals []rdf.TermID) bool {
	for i, f := range e.filters {
		var lt rdf.TermID
		if s := e.fLHS[i]; s >= 0 {
			lt = vals[s]
		}
		lhs := r.st.Dict().Term(lt).Text
		rhs := f.Value.Text
		switch s := e.fRHS[i]; {
		case s >= 0:
			rhs = r.st.Dict().Term(vals[s]).Text
		case s == -2:
			rhs = r.st.Dict().Term(rdf.NoTerm).Text
		}
		if !query.EvalFilter(f.Op, lhs, rhs) {
			return false
		}
	}
	return true
}

// recordBinding materialises one complete binding (filters already
// applied): it renders the answer key over the projected slots and
// offers the answer to the top-k state. vals is indexed by slot, triples and probs by pattern
// index.
func (r *run) recordBinding(e *joinEnv, total float64, vals []rdf.TermID, triples []store.ID, probs []float64) {
	sc := &r.sc
	buf := sc.keyBuf[:0]
	for i, v := range e.proj {
		buf = append(buf, v...)
		buf = append(buf, '=')
		buf = strconv.AppendUint(buf, uint64(vals[e.projSlots[i]]), 10)
		buf = append(buf, ';')
	}
	sc.keyBuf = buf
	// The answer is materialised (bindings projected, triples and
	// probabilities copied) only if the write lands.
	var stored Answer
	wrote, admitted := e.state.record(buf, total, func() Answer {
		b := make(map[string]rdf.TermID, len(e.proj))
		for i, v := range e.proj {
			b[v] = vals[e.projSlots[i]]
		}
		stored = Answer{
			Bindings: b,
			Score:    total,
			Derivation: Derivation{
				Rewrite:      e.rw,
				Triples:      append([]store.ID(nil), triples...),
				PatternProbs: append([]float64(nil), probs...),
				Plan:         e.planFn(e.order),
			},
		}
		return stored
	})
	if wrote {
		e.answers++
	}
	if admitted && r.emit != nil {
		r.emit(stored)
	}
}
