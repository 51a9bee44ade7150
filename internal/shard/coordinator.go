package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/relax"
	"trinit/internal/store"
	"trinit/internal/topk"
)

// Group is a set of shard engines behind one coordinator: per-shard
// stores with their own match-list caches and executor pools, plus the
// corpus-wide normalisation-mass service every shard's matcher consults.
// A Group is safe for concurrent Run calls; executors are pooled per
// shard exactly as the unsharded engine pools them.
//
// The coordinator also keeps a residual executor over the retained full
// store: rewrites whose derivations are not guaranteed co-resident on a
// single shard (more than one pattern reading partitioned predicates)
// are evaluated there, sharing the run's bound broadcast and budget —
// the in-process analogue of a coordinator-side join for query shapes
// the partitioning cannot co-locate.
type Group struct {
	stores []*store.Store
	caches []*topk.Cache
	pools  []sync.Pool
	topts  topk.Options
	stats  PartitionStats

	// src is the full corpus: the normalisation-mass oracle and the
	// residual executor's store. srcCache/srcPool serve the residual
	// runs, mirroring the per-shard pools.
	src      *store.Store
	srcCache *topk.Cache
	srcPool  sync.Pool

	// mass serves each pattern's corpus-wide match mass to the shard
	// matchers (see score.Matcher.Mass), memoised per pattern text —
	// the store is frozen, so a mass never changes. nil under
	// NoNormalize, where emission probabilities are unnormalised and
	// shard-independent by construction. In-process the oracle reads
	// the retained source store; a network layer would compute the same
	// number by summing the shards' disjoint owned masses.
	mass   func(p query.Pattern, local float64) float64
	massMu sync.Mutex
	masses map[string]float64
}

// NewGroup partitions a frozen source store into n shards and builds
// their engines. The source store is retained as the statistics oracle
// for score normalisation and as the residual executor's store;
// co-located matching and joining runs against the shard stores.
func NewGroup(src *store.Store, n int, topts topk.Options, popts PartitionOptions) (*Group, error) {
	shards, stats, err := Partition(src, n, popts)
	if err != nil {
		return nil, err
	}
	return newGroup(src, shards, stats, topts), nil
}

// NewGroupFromStores builds a group over pre-built shard stores — the
// restore path for per-shard snapshots, and the test seam. src must
// hold the full corpus: it supplies the normalisation-mass oracle and
// the residual executor. replicated is the set of predicates present on
// every shard (PartitionStats.Replicated); nil is safe but conservative
// — without it the coordinator cannot prove any multi-pattern rewrite
// co-located and evaluates them all residually. The shard stores must
// be frozen and share one dictionary with src.
func NewGroupFromStores(src *store.Store, stores []*store.Store, replicated map[rdf.TermID]bool, topts topk.Options) (*Group, error) {
	if len(stores) == 0 {
		return nil, fmt.Errorf("shard: group over zero stores")
	}
	for i, st := range stores {
		if !st.Frozen() {
			return nil, fmt.Errorf("shard: store %d is not frozen", i)
		}
	}
	if src == nil {
		return nil, fmt.Errorf("shard: group needs the source store (mass oracle and residual executor)")
	}
	stats := PartitionStats{
		Shards:     len(stores),
		Owned:      make([]int, len(stores)),
		Triples:    make([]int, len(stores)),
		Replicated: replicated,
	}
	for i, st := range stores {
		stats.Owned[i] = st.Len()
		stats.Triples[i] = st.Len()
	}
	return newGroup(src, stores, stats, topts), nil
}

func newGroup(src *store.Store, stores []*store.Store, stats PartitionStats, topts topk.Options) *Group {
	if topts.K <= 0 {
		// Mirror NewExecutor's default so the merge cut and the
		// per-shard runs agree on k.
		topts.K = 10
	}
	g := &Group{
		stores:   stores,
		caches:   make([]*topk.Cache, len(stores)),
		pools:    make([]sync.Pool, len(stores)),
		topts:    topts,
		stats:    stats,
		src:      src,
		srcCache: topk.NewCache(0),
	}
	// The residual executor evaluates against the full corpus, so its
	// local masses already are the global ones — no hook needed.
	g.srcPool.New = func() any { return topk.NewExecutor(src, g.srcCache, g.topts) }
	if !topts.NoNormalize && src != nil {
		oracle := topk.MatcherFor(src, topts)
		g.masses = make(map[string]float64)
		g.mass = func(p query.Pattern, _ float64) float64 {
			key := p.String()
			g.massMu.Lock()
			v, ok := g.masses[key]
			g.massMu.Unlock()
			if ok {
				return v
			}
			// Compute outside the lock — the matcher is concurrency-safe
			// and deterministic, so a duplicated computation stores the
			// same float.
			v = oracle.MatchMass(p)
			g.massMu.Lock()
			g.masses[key] = v
			g.massMu.Unlock()
			return v
		}
	}
	for i := range stores {
		i := i
		g.caches[i] = topk.NewCache(0)
		g.pools[i].New = func() any {
			ex := topk.NewExecutor(g.stores[i], g.caches[i], g.topts)
			if g.mass != nil {
				ex.SetMassHook(g.mass)
			}
			return ex
		}
	}
	return g
}

// Shards returns the shard count.
func (g *Group) Shards() int { return len(g.stores) }

// Store returns shard i's store.
func (g *Group) Store(i int) *store.Store { return g.stores[i] }

// AnswerStore resolves a RunResult.Shards attribution to the store the
// answer's derivation lives in: shard i's store, or the full source
// store for answers the coordinator's residual run produced (attribution
// == Shards()).
func (g *Group) AnswerStore(i int) *store.Store {
	if i == len(g.stores) {
		return g.src
	}
	return g.stores[i]
}

// shardable reports whether every derivation of the rewrite is fully
// co-resident on at least one shard: at most one pattern may read
// partitioned triples, and every other pattern must read a predicate
// replicated to all shards. Then each derivation joins that one
// partitioned triple — present on the shard owning its subject — with
// triples present everywhere, so the owning shard computes it exactly.
func (g *Group) shardable(rw relax.Rewrite) bool {
	partitioned := 0
	for _, p := range rw.Query.Patterns {
		if !g.everywhere(p) {
			partitioned++
			if partitioned > 1 {
				return false
			}
		}
	}
	return true
}

// everywhere reports whether every triple pattern p can match is
// replicated to all shards: the predicate slot names a concrete
// resource in the replicated set. Variable predicates range over
// partitioned ones, and token predicates match similar predicates by
// text similarity, which may include partitioned ones — both are
// conservatively treated as partitioned.
func (g *Group) everywhere(p query.Pattern) bool {
	if p.P.IsVar() || p.P.Term.Kind != rdf.KindResource || g.stats.Replicated == nil {
		return false
	}
	id, ok := g.src.Dict().Lookup(p.P.Term)
	return ok && g.stats.Replicated[id]
}

// Stats returns the partitioning statistics.
func (g *Group) Stats() PartitionStats { return g.stats }

// RunResult is one coordinated scatter-gather run.
type RunResult struct {
	// Answers is the merged global top-k, ranked exactly as one
	// unsharded run ranks: score descending, ties by binding key.
	Answers []topk.Answer
	// Shards[i] is the shard whose derivation backs Answers[i] (the
	// shard that achieved the answer's score; the lowest such index on
	// exact ties). The value Shards() marks the coordinator's residual
	// run. Explanations must resolve Derivation.Triples against the
	// attributed store — see AnswerStore.
	Shards []int
	// Metrics aggregates the per-shard and residual runs' work counters.
	Metrics topk.Metrics
	// Traces holds each shard's rewrite-by-rewrite trace, indexed by
	// shard; when the run had residual rewrites, the extra entry at
	// index Shards() is the coordinator's residual trace (nil under
	// RunConfig.NoTrace).
	Traces [][]topk.RewriteTrace
	// Broadcasts counts the bound-raising exchanges through the run's
	// BoundBroadcast.
	Broadcasts int64
	// Residual counts the rewrites the coordinator evaluated on the
	// full store because their derivations were not provably co-located
	// on any single shard (more than one pattern over partitioned
	// predicates).
	Residual int
	// MergeTime is the wall-clock cost of the gather/merge phase.
	MergeTime time.Duration
}

// Run scatter-gathers one query: every shard evaluates the co-located
// rewrites against its partition — sharing one fresh BoundBroadcast,
// one budget account and the caller's cancellation — rewrites the
// partitioning cannot co-locate run on the coordinator's residual
// full-store executor under the same bound and budget, and the
// coordinator merges all the rankings into the global top-k.
//
// Merge correctness: a rewrite is given to the shards only when each of
// its derivations joins at most one partitioned triple — co-resident on
// the shard owning that triple's subject, next to replicated triples
// that are everywhere — so that shard computes the derivation's exact
// global score: per-pattern probabilities are normalised with
// corpus-wide masses, making scores bit-identical to an unsharded
// run's. Every other rewrite is evaluated once, exactly, on the full
// store. Any run's answers can only score at or below their global
// scores, hence taking the max score per binding key across runs,
// sorting by (score desc, key asc) and cutting to k reproduces the
// unsharded ranking byte for byte.
//
// Errors follow the engine's precedence: a panic (which cancels the
// sibling runs) outranks budget exhaustion, which outranks
// cancellation; in every case the merged partial answers are returned.
func (g *Group) Run(ctx context.Context, q *query.Query, rewrites []relax.Rewrite, cfg topk.RunConfig) (RunResult, error) {
	n := len(g.stores)
	bb := &BoundBroadcast{}
	cfg.Bound = bb

	// Split the rewrite list into shard-local and residual work. A
	// single shard holds the whole corpus, so nothing is residual at
	// N=1 — the run is the unsharded run, derivation for derivation.
	local, residual := rewrites, []relax.Rewrite(nil)
	if n > 1 {
		shardableAll := true
		for _, rw := range rewrites {
			if !g.shardable(rw) {
				shardableAll = false
				break
			}
		}
		if !shardableAll {
			local = make([]relax.Rewrite, 0, len(rewrites))
			for _, rw := range rewrites {
				if g.shardable(rw) {
					local = append(local, rw)
				} else {
					residual = append(residual, rw)
				}
			}
		}
	}
	if cfg.BudgetShare == nil {
		// One shared account across all shards; nil when the budget is
		// unlimited.
		cfg.BudgetShare = topk.NewBudgetShare(cfg.Budget)
		cfg.Budget = topk.Budget{}
	}
	if cfg.Emit != nil {
		// Serialise the caller's emit hook across shards, which run on
		// their own goroutines.
		var emitMu sync.Mutex
		inner := cfg.Emit
		cfg.Emit = func(a topk.Answer) {
			emitMu.Lock()
			defer emitMu.Unlock()
			inner(a)
		}
	}

	base := ctx
	if base == nil {
		base = context.Background()
	}
	ictx, icancel := context.WithCancel(base)
	defer icancel()

	// Slot n, when occupied, is the coordinator's residual run.
	slots := n
	if len(residual) > 0 {
		slots = n + 1
	}
	var (
		answers = make([][]topk.Answer, slots)
		metrics = make([]topk.Metrics, slots)
		errs    = make([]error, slots)
		traces  = make([][]topk.RewriteTrace, slots)
		wg      sync.WaitGroup
	)
	run := func(i int, pool *sync.Pool, rws []relax.Rewrite) {
		defer wg.Done()
		ex := pool.Get().(*topk.Executor)
		clean := false
		defer func() {
			if rec := recover(); rec != nil {
				// Executor.Run does not recover; this is the per-run
				// panic boundary. Cancel the siblings
				// and drop the (possibly poisoned) executor.
				errs[i] = &topk.PanicError{Value: rec, Stack: debug.Stack()}
				icancel()
				return
			}
			if clean {
				pool.Put(ex)
			}
		}()
		a, m, err := ex.Run(ictx, q, rws, cfg)
		if !cfg.NoTrace {
			traces[i] = ex.LastTrace()
		}
		answers[i], metrics[i], errs[i] = a, m, err
		clean = true
	}
	if n == 1 || len(local) > 0 {
		// A fully-residual rewrite list leaves the shards nothing to do;
		// skip their goroutines entirely rather than run them empty.
		for i := 0; i < n; i++ {
			wg.Add(1)
			go run(i, &g.pools[i], local)
		}
	}
	if len(residual) > 0 {
		// The residual run prunes with the same shared bound: its local
		// k-th best — computed over a subset of the rewrites — is never
		// above the global k-th, so publishing and consuming through bb
		// stays strictly safe.
		wg.Add(1)
		go run(n, &g.srcPool, residual)
	}
	wg.Wait()

	k := g.topts.K
	if cfg.K > 0 {
		k = cfg.K
	}
	if q.Limit > 0 && q.Limit < k {
		k = q.Limit
	}

	mergeStart := time.Now()
	proj := q.ProjectedVars()
	type slot struct {
		a     topk.Answer
		shard int
		key   string
	}
	var (
		list []slot
		pos  = make(map[string]int)
		buf  []byte
	)
	for si := 0; si < slots; si++ {
		for _, a := range answers[si] {
			buf = topk.AnswerKey(buf[:0], a.Bindings, proj)
			if i, ok := pos[string(buf)]; ok {
				// Max score per answer key; on exact ties the lowest
				// index wins (si ascends), fixing which run's
				// derivation backs the answer deterministically — the
				// residual run, at index n, loses ties to real shards.
				if a.Score > list[i].a.Score {
					list[i].a, list[i].shard = a, si
				}
				continue
			}
			pos[string(buf)] = len(list)
			list = append(list, slot{a: a, shard: si, key: string(buf)})
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].a.Score != list[j].a.Score {
			return list[i].a.Score > list[j].a.Score
		}
		return list[i].key < list[j].key
	})
	if len(list) > k {
		list = list[:k]
	}

	res := RunResult{
		Answers:    make([]topk.Answer, len(list)),
		Shards:     make([]int, len(list)),
		Broadcasts: bb.Broadcasts(),
		Residual:   len(residual),
	}
	for i, s := range list {
		res.Answers[i] = s.a
		res.Shards[i] = s.shard
	}
	if !cfg.NoTrace {
		res.Traces = traces
	}
	for _, m := range metrics {
		res.Metrics.Add(m)
	}
	res.MergeTime = time.Since(mergeStart)

	// Error precedence: panic > budget > cancellation (a panic cancels
	// the siblings, and an exhausted shared budget stops every shard, so
	// the weaker signals are side effects of the stronger ones).
	var budgetErr, cancelErr error
	for _, e := range errs {
		var pe *topk.PanicError
		switch {
		case e == nil:
		case errors.As(e, &pe):
			return res, pe
		case errors.Is(e, topk.ErrBudgetExhausted):
			budgetErr = e
		case cancelErr == nil:
			cancelErr = e
		}
	}
	switch {
	case budgetErr != nil:
		return res, budgetErr
	case cancelErr != nil:
		if ctx != nil && ctx.Err() != nil {
			// Report the caller's cancellation cause (deadline vs
			// cancel), not the internal context's.
			return res, ctx.Err()
		}
		return res, cancelErr
	}
	return res, nil
}
