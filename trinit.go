// Package trinit is a Go implementation of TriniT, the system for
// exploratory querying of extended knowledge graphs demonstrated in
//
//	M. Yahya, K. Berberich, M. Ramanath, G. Weikum:
//	"Exploratory Querying of Extended Knowledge Graphs", PVLDB 9(13), 2016.
//
// TriniT addresses two pain points of querying knowledge graphs: users do
// not know the KG's vocabulary and structure, and the KG itself is
// incomplete. It extends the KG with token triples mined from text by Open
// Information Extraction (the XKG), supports triple-pattern queries whose
// slots may hold textual tokens, applies weighted query-relaxation rules,
// ranks answers with a query-likelihood model, and explains every answer.
//
// The Engine is the entry point:
//
//	e := trinit.New(nil)
//	e.AddKGFact("AlbertEinstein", "bornIn", "Ulm")
//	e.ExtendFromDocuments([]trinit.Document{{ID: "d1", Text: "..."}})
//	e.Freeze()
//	e.MineRules(trinit.DefaultMiningConfig())
//	res, err := e.Query("?x bornIn Germany LIMIT 5")
package trinit

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"trinit/internal/admission"
	"trinit/internal/dataset"
	"trinit/internal/explain"
	"trinit/internal/ned"
	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/relax"
	"trinit/internal/serial"
	"trinit/internal/shard"
	"trinit/internal/store"
	"trinit/internal/suggest"
	"trinit/internal/topk"
	"trinit/internal/xkg"
)

// Sentinel errors of the public API. Errors returned by the Engine wrap
// these, so callers dispatch with errors.Is instead of matching strings
// — and the server maps them to proper HTTP status codes.
var (
	// ErrNotFrozen reports a query-side call on an engine that has not
	// been frozen yet (call Freeze first).
	ErrNotFrozen = errors.New("trinit: engine is not frozen")
	// ErrFrozen reports a mutation of graph data after Freeze.
	ErrFrozen = errors.New("trinit: engine is frozen")
	// ErrParse reports a malformed query (or an untranslatable
	// question); the wrapped error carries the parse detail.
	ErrParse = errors.New("trinit: parse error")
	// ErrCanceled reports a query cut short by context cancellation or
	// deadline expiry. The returned Result is still valid: it carries
	// the answers found so far and Result.Partial is true. The wrapped
	// chain includes the context error, so errors.Is(err,
	// context.DeadlineExceeded) distinguishes timeouts from cancels.
	ErrCanceled = errors.New("trinit: query canceled")
	// ErrBudgetExhausted reports a query cut short by its cost budget
	// (WithBudget or Options.DefaultBudget). The returned Result is
	// still valid: Result.Partial is true and Answers holds a sound
	// partial top-k — every answer is real, its score a lower bound on
	// the unbudgeted score.
	ErrBudgetExhausted = errors.New("trinit: query budget exhausted")
	// ErrOverloaded reports a query shed by admission control: the wait
	// queue was full, or the request's deadline was predicted unmeetable
	// given the current queue. No evaluation work was done; the server
	// maps this to 429 with a Retry-After hint.
	ErrOverloaded = errors.New("trinit: engine overloaded")
	// ErrInternal reports an evaluation panic that was recovered at the
	// query boundary. The engine stays serviceable; the returned Result
	// carries any answers found before the panic and a "panic" trace
	// entry with the captured stack.
	ErrInternal = errors.New("trinit: internal query error")
)

// Options configure an Engine.
type Options struct {
	// K is the default number of answers per query (queries may lower
	// it with LIMIT). Default 10.
	K int
	// MaxRelaxationDepth bounds rule applications per derivation
	// (default 2).
	MaxRelaxationDepth int
	// MaxRewrites bounds the rewrite space per query (default 64).
	MaxRewrites int
	// MinRewriteWeight prunes derivations below this weight (default
	// 0.05).
	MinRewriteWeight float64
	// MinTokenSimilarity is the threshold for textual token slots to
	// match a term (default 0.34).
	MinTokenSimilarity float64
	// MatchCacheSize caps the engine's shared match-list cache, in
	// pattern entries (default 4096). Least-recently-used lists are
	// evicted beyond the cap.
	MatchCacheSize int
	// AdmissionCapacity enables admission control: the total evaluation
	// weight allowed to run concurrently, where a query weighs 1 and a
	// sharded query weighs its shard count. 0 disables admission — every
	// query runs immediately, the pre-admission behaviour. Adjustable
	// after construction with SetAdmissionControl.
	AdmissionCapacity int
	// AdmissionQueue bounds the admission wait queue (queries holding
	// for capacity). 0 defaults to 4× AdmissionCapacity; beyond the
	// bound, arrivals are shed with ErrOverloaded. Ignored without
	// AdmissionCapacity.
	AdmissionQueue int
	// DefaultBudget caps the evaluation work of every query that does
	// not set its own WithBudget. The zero value is unlimited.
	// Adjustable after construction with SetDefaultBudget.
	DefaultBudget Budget
	// Shards splits the frozen store into that many subject-hashed
	// partitions evaluated by a scatter-gather coordinator (see package
	// internal/shard and README "Sharded execution"). 0 or 1 keeps the
	// classic single-store pipeline. Rankings are byte-identical at
	// every shard count; shards exchange their running k-th-score bound
	// so incremental pruning keeps working across the split. Overridable
	// per query with WithoutSharding.
	Shards int
	// ShardReplicateFactor tunes which predicates the partitioner
	// replicates to every shard for join co-location (see
	// shard.PartitionOptions.ReplicateFactor): 0 uses the default,
	// negative disables replication. Ignored without Shards > 1.
	ShardReplicateFactor int
	// CompactAfter triggers a background compaction (fold of the
	// live-ingest delta into the base store, see Compact) once the delta
	// holds at least that many triples. 0 disables auto-compaction:
	// deltas grow until an explicit Compact or Checkpoint.
	CompactAfter int
	// NoMapSegments forces Open and LoadSnapshot to decode snapshot
	// segments eagerly onto the heap instead of memory-mapping them.
	// Answers are identical; open time and resident memory are not.
	NoMapSegments bool
}

// WithShards returns Options running the engine's queries over n
// subject-hashed shards — convenience for trinit.New(trinit.WithShards(4)).
func WithShards(n int) *Options {
	return &Options{Shards: n}
}

// Budget caps the evaluation work of one query: join branches explored,
// hash buckets probed, frontier blocks emitted. Zero fields are
// unlimited. A query that spends its budget stops at the processor's
// next poll point and returns the answers found so far with
// Result.Partial set and an error wrapping ErrBudgetExhausted.
type Budget = topk.Budget

func (o *Options) withDefaults() Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	if out.K <= 0 {
		out.K = 10
	}
	if out.MaxRelaxationDepth <= 0 {
		out.MaxRelaxationDepth = 2
	}
	if out.MaxRewrites <= 0 {
		out.MaxRewrites = 64
	}
	if out.MinRewriteWeight <= 0 {
		out.MinRewriteWeight = 0.05
	}
	return out
}

// Document is one text input to XKG construction.
type Document struct {
	// ID identifies the document in answer provenance.
	ID string
	// Text is the document body.
	Text string
}

// ExtendConfig controls XKG construction from documents.
type ExtendConfig struct {
	// MinConfidence drops extractions below this extractor confidence.
	MinConfidence float64
	// MinRelationPairs applies ReVerb's lexical filter: relation
	// phrases with fewer distinct argument pairs are dropped (<2
	// disables).
	MinRelationPairs int
	// DisableEntityLinking keeps all argument phrases as raw tokens.
	DisableEntityLinking bool
}

// DefaultExtendConfig mirrors xkg.DefaultOptions.
func DefaultExtendConfig() ExtendConfig {
	return ExtendConfig{MinConfidence: 0.3, MinRelationPairs: 1}
}

// ExtendStats reports what XKG construction did.
type ExtendStats struct {
	Documents      int
	Sentences      int
	Extractions    int
	Kept           int
	LinkedSubjects int
	LinkedObjects  int
	TriplesAdded   int
}

// MiningConfig controls relaxation-rule mining.
type MiningConfig struct {
	// MinSupport is the minimum args-intersection size (default 2).
	MinSupport int
	// MinWeight drops rules below this weight (default 0.1).
	MinWeight float64
	// MaxRules caps the mined rule count (0 = unbounded).
	MaxRules int
	// DisableInversion skips predicate-inversion rules.
	DisableInversion bool
	// ContainmentPredicates are used for composition rules (Figure 4
	// rule 1 shape); default: locatedIn, partOf, memberOf.
	ContainmentPredicates []string
	// HornRules additionally mines AMIE-style chain rules
	// p(x,y) ⇐ q(x,z) ∧ r(z,y), weighted by PCA confidence (§3 cites
	// AMIE as a rule source).
	HornRules bool
	// Paraphrases additionally derives rules from a built-in
	// PATTY-style paraphrase repository (§3 cites paraphrase
	// repositories as a rule source).
	Paraphrases bool
	// Relatedness additionally derives rules from predicate-label
	// similarity (§3 cites semantic relatedness measures).
	Relatedness bool
	// TypedCompositions additionally mines rules in the exact Figure 4
	// rule 1 shape, with type constraints on both sides.
	TypedCompositions bool
	// RelatednessMinSim is the label-similarity threshold for
	// Relatedness rules (default 0.5).
	RelatednessMinSim float64
}

// DefaultMiningConfig returns the engine defaults.
func DefaultMiningConfig() MiningConfig {
	return MiningConfig{MinSupport: 2, MinWeight: 0.1}
}

// RuleSpec is a relaxation rule in textual form, as accepted by AddRule and
// returned by MineRules: "?x hasAdvisor ?y => ?y hasStudent ?x".
type RuleSpec struct {
	ID     string
	Rule   string
	Weight float64
	Origin string
}

// OperatorFunc is the public relaxation-operator API (§3): a function that
// inspects the engine and contributes relaxation rules. Operators run when
// RunOperators is called.
type OperatorFunc func(e *Engine) []RuleSpec

// Engine is a TriniT instance: an extended knowledge graph plus rules,
// ranking and suggestion machinery.
//
// Once frozen, an Engine is safe for concurrent use: Query, Ask, Complete
// and Stats take no engine-wide lock — the store is immutable, match
// lists live in a concurrency-safe shared cache, and per-query state sits
// in pooled executors. Mutation APIs (AddRule, RemoveRule, MineRules, …)
// serialise behind a write lock and publish the rule set copy-on-write,
// so in-flight queries keep the snapshot they started with.
type Engine struct {
	// mu guards the mutable engine state: rules (replaced wholesale,
	// never appended in place) with the expander compiled from them (both
	// published by setRules only), operators, frozen, and the published
	// store version. Read paths hold it only long enough to snapshot.
	mu        sync.RWMutex
	opts      Options
	st        *store.Store
	rules     []*relax.Rule
	expander  *relax.Expander
	operators []OperatorFunc
	frozen    bool

	// ver is the published store version: the store plus everything
	// derived from it (match-list cache, executor pool, suggester,
	// question translator). Queries pin it at admission and read it
	// lock-free; IngestFacts and Compact publish successors. e.st always
	// mirrors ver.st. See version.go.
	ver *storeVersion

	// group is the sharded-execution coordinator (nil when Options.Shards
	// <= 1): per-shard stores, caches and executor pools behind one
	// scatter-gather merge. Built when the engine freezes, guarded by mu
	// like ver. The full store e.st is retained either way — it serves
	// as the corpus-wide normalisation-mass oracle, the WithoutSharding
	// path, and the durability image. groupVer holds the store version
	// the group partitioned, pinned for the group's lifetime so a
	// compaction can never unmap columns the shards still reference.
	group    *shard.Group
	groupVer *storeVersion

	// ingestMu serialises live ingest and compaction against each other
	// (never against queries). Lock order: durability.mu, then ingestMu,
	// then e.mu.
	ingestMu sync.Mutex

	// Live-ingest counters and state, exposed through MemoryStats and
	// /metrics.
	compacting    atomic.Bool
	compactions   atomic.Uint64
	retiredLive   atomic.Int64
	ingestedFacts atomic.Uint64

	// Sharding counters, exposed through ShardingStats and /metrics.
	shardedQueries   atomic.Uint64
	boundBroadcasts  atomic.Int64
	crossShardPrunes atomic.Int64
	shardMergeNanos  atomic.Int64
	residualRewrites atomic.Int64

	// admit gates query admission (nil = admission disabled); guarded
	// by mu for replacement, snapshotted per query. defBudget is the
	// engine-wide default cost budget (zero = unlimited).
	admit     *admission.Controller
	defBudget Budget

	// dur is the engine's attachment to a durable data directory (nil
	// for in-memory engines); set once by Open or Persist, cleared by
	// Close. See durable.go for the write-ahead protocol.
	dur atomic.Pointer[durability]

	// Serving counters, exposed through ServingStats and /metrics.
	queriesTotal    atomic.Uint64
	queriesShed     atomic.Uint64
	budgetExhausted atomic.Uint64
	panicsRecovered atomic.Uint64
	inFlight        atomic.Int64
}

// New creates an empty engine. Pass nil for default options.
func New(opts *Options) *Engine {
	o := opts.withDefaults()
	e := &Engine{
		opts:      o,
		st:        store.New(nil, nil),
		admit:     newAdmission(o.AdmissionCapacity, o.AdmissionQueue),
		defBudget: o.DefaultBudget,
	}
	e.setRules(nil)
	return e
}

// newAdmission builds the admission controller for a capacity/queue
// pair: nil (admission disabled) for capacity <= 0, a 4×capacity
// default queue when the queue bound is unset.
func newAdmission(capacity, queue int) *admission.Controller {
	if capacity <= 0 {
		return nil
	}
	if queue <= 0 {
		queue = 4 * capacity
	}
	return admission.New(int64(capacity), queue)
}

// SetAdmissionControl replaces the engine's admission controller:
// capacity is the total evaluation weight (1 per query, N per query on
// N shards) allowed to run concurrently, queue bounds the waiters
// behind it (0 = 4×capacity). capacity <= 0 disables admission.
// In-flight queries keep the controller they were admitted by and
// release back into it, so replacement mid-traffic never leaks or
// double-frees capacity.
func (e *Engine) SetAdmissionControl(capacity, queue int) {
	e.mu.Lock()
	e.admit = newAdmission(capacity, queue)
	e.mu.Unlock()
}

// SetDefaultBudget replaces the engine-wide default cost budget applied
// to queries without their own WithBudget. The zero Budget removes the
// default (unlimited).
func (e *Engine) SetDefaultBudget(b Budget) {
	e.mu.Lock()
	e.defBudget = b
	e.mu.Unlock()
}

// AddKGFact adds a curated KG fact between resources (confidence 1).
func (e *Engine) AddKGFact(subject, predicate, object string) error {
	d, unlock := e.durLocked()
	defer unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.frozen {
		return ErrFrozen
	}
	e.st.AddKG(rdf.Resource(subject), rdf.Resource(predicate), rdf.Resource(object))
	if d != nil {
		return e.logDrainedAdds(d)
	}
	return nil
}

// AddKGLiteral adds a curated KG fact whose object is a literal value.
func (e *Engine) AddKGLiteral(subject, predicate, literal string) error {
	d, unlock := e.durLocked()
	defer unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.frozen {
		return ErrFrozen
	}
	e.st.AddFact(rdf.Resource(subject), rdf.Resource(predicate), rdf.Literal(literal), rdf.SourceKG, 1, rdf.NoProv)
	if d != nil {
		return e.logDrainedAdds(d)
	}
	return nil
}

// AddTokenTriple adds an XKG token triple directly (subject and object are
// resources when they name known entities — pass viaEntity true — and
// token phrases otherwise).
func (e *Engine) AddTokenTriple(subject, relation, object string, confidence float64, doc, sentence string) error {
	d, unlock := e.durLocked()
	defer unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.frozen {
		return ErrFrozen
	}
	if confidence <= 0 || confidence > 1 {
		return fmt.Errorf("trinit: confidence %v outside (0, 1]", confidence)
	}
	prov := rdf.NoProv
	if doc != "" || sentence != "" {
		prov = e.st.Prov().Add(rdf.Prov{Doc: doc, Sentence: sentence})
	}
	s := rdf.Term(rdf.Token(subject))
	if _, ok := e.st.Dict().Lookup(rdf.Resource(subject)); ok {
		s = rdf.Resource(subject)
	}
	o := rdf.Term(rdf.Token(object))
	if _, ok := e.st.Dict().Lookup(rdf.Resource(object)); ok {
		o = rdf.Resource(object)
	}
	e.st.AddFact(s, rdf.Token(relation), o, rdf.SourceXKG, confidence, prov)
	if d != nil {
		return e.logDrainedAdds(d)
	}
	return nil
}

// ExtendFromDocuments runs the Open IE pipeline (extraction, filtering,
// entity linking) over the documents and adds the resulting token triples
// to the XKG. Call after loading the KG and before Freeze.
func (e *Engine) ExtendFromDocuments(docs []Document) (ExtendStats, error) {
	return e.ExtendFromDocumentsWith(docs, DefaultExtendConfig())
}

// ExtendFromDocumentsWith is ExtendFromDocuments with explicit config.
func (e *Engine) ExtendFromDocumentsWith(docs []Document, cfg ExtendConfig) (ExtendStats, error) {
	d, unlock := e.durLocked()
	defer unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.frozen {
		return ExtendStats{}, ErrFrozen
	}
	xdocs := make([]xkg.Document, len(docs))
	for i, d := range docs {
		xdocs[i] = xkg.Document{ID: d.ID, Text: d.Text}
	}
	var linker *ned.Linker
	if !cfg.DisableEntityLinking {
		linker = ned.NewLinker(e.st)
	}
	stats := xkg.Build(e.st, linker, xdocs, xkg.Options{
		MinConf:      cfg.MinConfidence,
		MinRelPairs:  cfg.MinRelationPairs,
		LinkEntities: !cfg.DisableEntityLinking,
	})
	if d != nil {
		if err := e.logDrainedAdds(d); err != nil {
			return ExtendStats{}, err
		}
	}
	return ExtendStats{
		Documents:      stats.Documents,
		Sentences:      stats.Sentences,
		Extractions:    stats.Extractions,
		Kept:           stats.Kept,
		LinkedSubjects: stats.LinkedSubj,
		LinkedObjects:  stats.LinkedObj,
		TriplesAdded:   stats.Added,
	}, nil
}

// initQueryPipeline publishes the first store version over e.st —
// wrapping the mapped segment backing it, if any — and, with
// Options.Shards > 1, partitions the frozen store and builds the shard
// coordinator. Called once, under e.mu, when the engine freezes or a
// snapshot engine is assembled.
func (e *Engine) initQueryPipeline(mapped *mappedRef, epoch uint64) {
	e.publishLocked(newStoreVersion(e, e.st, e.st, nil, mapped, epoch))
	if e.opts.Shards > 1 && e.st.Frozen() {
		g, err := shard.NewGroup(e.st, e.opts.Shards,
			e.topkOptions(), shard.PartitionOptions{ReplicateFactor: e.opts.ShardReplicateFactor})
		if err == nil {
			e.group = g
			// The shard stores reference the partitioned version's columns
			// (and, for replicated predicates, its dictionary); pin it for
			// the group's lifetime so retirement can never unmap them.
			e.groupVer = e.ver
			e.groupVer.pin()
		}
		// Partition can only fail on an unfrozen store or n < 1, both
		// excluded here; if it ever does, the engine degrades to the
		// (identical-answer) unsharded pipeline rather than failing.
	}
}

// Freeze finalises the graph: indexes are built and the engine becomes
// queryable. No facts can be added afterwards. Freeze is idempotent.
func (e *Engine) Freeze() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.frozen {
		return
	}
	e.st.Freeze()
	e.initQueryPipeline(nil, 0)
	e.frozen = true
}

// Frozen reports whether Freeze has been called.
func (e *Engine) Frozen() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.frozen
}

// AddRule registers a manual relaxation rule in textual form, e.g.
//
//	e.AddRule("r2", "?x hasAdvisor ?y => ?y hasStudent ?x", 1.0)
func (e *Engine) AddRule(id, rule string, weight float64) error {
	r, err := relax.ParseRule(id, rule, weight, "manual")
	if err != nil {
		return err
	}
	d, unlock := e.durLocked()
	defer unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if d != nil {
		// Write-ahead: the rule is published only once its record is
		// durable, so a crash can never reveal a rule the log lacks.
		if err := d.append(ruleAddRecord(r)); err != nil {
			return err
		}
	}
	e.appendRules(r)
	return nil
}

// appendRules publishes a new rule-set snapshot. Callers hold e.mu. The
// old slice is never mutated, so queries that snapshotted it race-free
// keep a consistent rule set.
func (e *Engine) appendRules(rs ...*relax.Rule) {
	e.setRules(append(slices.Clip(e.rules), rs...))
}

// setRules publishes a rule set together with the expander compiled from
// it, so the rules compile once per publication rather than per query.
// Callers hold e.mu or own the engine exclusively.
func (e *Engine) setRules(rules []*relax.Rule) {
	exp := relax.NewExpander(rules)
	exp.MaxDepth = e.opts.MaxRelaxationDepth
	exp.MaxRewrites = e.opts.MaxRewrites
	exp.MinWeight = e.opts.MinRewriteWeight
	e.rules, e.expander = rules, exp
}

// MineRules mines relaxation rules from the XKG (predicate alignment,
// inversion, and composition rules; §3) and registers them. It returns the
// mined rules as specs. The engine must be frozen.
func (e *Engine) MineRules(cfg MiningConfig) ([]RuleSpec, error) {
	d, unlock := e.durLocked()
	defer unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.frozen {
		return nil, fmt.Errorf("%w: MineRules requires a frozen engine", ErrNotFrozen)
	}
	if cfg.MinSupport <= 0 {
		cfg.MinSupport = 2
	}
	if cfg.MinWeight <= 0 {
		cfg.MinWeight = 0.1
	}
	mopts := relax.MiningOptions{
		MinSupport:     cfg.MinSupport,
		MinWeight:      cfg.MinWeight,
		MaxRules:       cfg.MaxRules,
		IncludeInverse: !cfg.DisableInversion,
	}
	mined := relax.Mine(e.st, mopts)
	containment := cfg.ContainmentPredicates
	if len(containment) == 0 {
		containment = []string{"locatedIn", "partOf", "memberOf"}
	}
	mined = append(mined, relax.MineCompositions(e.st, containment, mopts)...)
	if cfg.HornRules {
		horn := relax.DefaultHornOptions()
		horn.MinSupport = cfg.MinSupport
		horn.MaxRules = cfg.MaxRules
		mined = append(mined, relax.MineHornRules(e.st, horn)...)
	}
	if cfg.TypedCompositions {
		topts := relax.DefaultTypedCompositionOptions()
		topts.MinSupport = cfg.MinSupport
		topts.MinWeight = cfg.MinWeight
		topts.Containment = containment
		topts.MaxRules = cfg.MaxRules
		mined = append(mined, relax.MineTypedCompositions(e.st, topts)...)
	}
	if cfg.Paraphrases {
		para, err := (relax.ParaphraseOperator{}).Rules(e.st)
		if err != nil {
			return nil, err
		}
		mined = append(mined, para...)
	}
	if cfg.Relatedness {
		rel, err := (relax.RelatednessOperator{MinSim: cfg.RelatednessMinSim, MaxRules: cfg.MaxRules}).Rules(e.st)
		if err != nil {
			return nil, err
		}
		mined = append(mined, rel...)
	}
	if d != nil && len(mined) > 0 {
		recs := make([]serial.WALRecord, len(mined))
		for i, r := range mined {
			recs[i] = ruleAddRecord(r)
		}
		if err := d.append(recs...); err != nil {
			return nil, err
		}
	}
	e.appendRules(mined...)
	specs := make([]RuleSpec, len(mined))
	for i, r := range mined {
		specs[i] = RuleSpec{ID: r.ID, Rule: r.String(), Weight: r.Weight, Origin: r.Origin}
	}
	return specs, nil
}

// AddOperator registers a relaxation operator (§3's plug-in API).
func (e *Engine) AddOperator(op OperatorFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.operators = append(e.operators, op)
}

// RunOperators invokes all registered operators and registers the rules
// they produce.
func (e *Engine) RunOperators() error {
	// Operators run without the engine lock so that they may call back
	// into the engine (Query, Rules, Stats, ...).
	e.mu.Lock()
	ops := append([]OperatorFunc(nil), e.operators...)
	e.mu.Unlock()

	var parsed []*relax.Rule
	for _, op := range ops {
		for _, spec := range op(e) {
			origin := spec.Origin
			if origin == "" {
				origin = "operator"
			}
			r, err := relax.ParseRule(spec.ID, spec.Rule, spec.Weight, origin)
			if err != nil {
				return err
			}
			parsed = append(parsed, r)
		}
	}
	d, unlock := e.durLocked()
	defer unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if d != nil && len(parsed) > 0 {
		recs := make([]serial.WALRecord, len(parsed))
		for i, r := range parsed {
			recs[i] = ruleAddRecord(r)
		}
		if err := d.append(recs...); err != nil {
			return err
		}
	}
	e.appendRules(parsed...)
	return nil
}

// Rules lists the currently registered rules.
func (e *Engine) Rules() []RuleSpec {
	e.mu.RLock()
	rules := e.rules
	e.mu.RUnlock()
	out := make([]RuleSpec, len(rules))
	for i, r := range rules {
		out[i] = RuleSpec{ID: r.ID, Rule: r.String(), Weight: r.Weight, Origin: r.Origin}
	}
	return out
}

// RemoveRule deletes the rule(s) with the given ID; it reports whether any
// rule was removed. On a durable engine whose write-ahead log has failed,
// the rules are left in place and RemoveRule reports false.
func (e *Engine) RemoveRule(id string) bool {
	d, unlock := e.durLocked()
	defer unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	kept := make([]*relax.Rule, 0, len(e.rules))
	removed := false
	for _, r := range e.rules {
		if r.ID == id {
			removed = true
			continue
		}
		kept = append(kept, r)
	}
	if !removed {
		return false
	}
	if d != nil {
		if err := d.append(serial.WALRecord{Op: serial.WALRuleRemove, RuleID: id}); err != nil {
			return false
		}
	}
	e.setRules(kept)
	return true
}

// ClearRules removes all registered rules. On a durable engine whose
// write-ahead log has failed, the rules are left in place.
func (e *Engine) ClearRules() {
	d, unlock := e.durLocked()
	defer unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if d != nil {
		if err := d.append(serial.WALRecord{Op: serial.WALRuleClear}); err != nil {
			return
		}
	}
	e.setRules(nil)
}

// Answer is one ranked query result.
type Answer struct {
	// Bindings maps projected variables to the display text of their
	// bound terms (token phrases and literals are quoted).
	Bindings map[string]string
	// Score is the answer's query-likelihood score.
	Score float64
	// Explanation is the answer's provenance.
	Explanation Explanation
}

// Explanation is the public form of an answer explanation (§5).
type Explanation struct {
	OriginalQuery  string
	RewrittenQuery string
	Weight         float64
	KGTriples      []TripleEvidence
	XKGTriples     []TripleEvidence
	Rules          []RuleEvidence
	// Text is the rendered multi-line explanation.
	Text string
}

// TripleEvidence is one contributing triple.
type TripleEvidence struct {
	Triple     string
	Pattern    string
	Source     string // "KG" or "XKG"
	Confidence float64
	Prob       float64
	Doc        string
	Sentence   string
}

// RuleEvidence is one invoked relaxation rule.
type RuleEvidence struct {
	ID     string
	Rule   string
	Origin string
	Weight float64
}

// Notice reports that a structural relaxation contributed to the answers.
type Notice struct {
	RuleID  string
	Origin  string
	Rule    string
	Message string
	Answers int
}

// Suggestion proposes replacing a textual token with a KG resource.
type Suggestion struct {
	Token    string
	Resource string
	Overlap  float64
	Position string
}

// Completion is an auto-completion candidate.
type Completion struct {
	Text   string
	Weight float64
}

// Metrics quantify the processing work of one query. See topk.Metrics for
// the per-field documentation.
type Metrics struct {
	RewritesTotal     int
	RewritesEvaluated int
	RewritesSkipped   int
	SortedAccesses    int
	IndexScanned      int
	PatternsMatched   int
	JoinBranches      int
	PrunedBranches    int
	// HashProbes counts hash-index bucket lookups the join kernel issued
	// in place of full match-list scans.
	HashProbes int
	// SemiJoinDropped counts match-list entries pruned by the semi-join
	// reduction pass before join enumeration.
	SemiJoinDropped int
	// TokenResolutions counts token slots resolved through the inverted
	// token index while building match lists.
	TokenResolutions int
	// ScanFallbacks counts token-slot patterns whose match lists were
	// built by the wildcard scan instead of token resolution.
	ScanFallbacks int
	// BlocksEmitted counts frontier blocks the block-at-a-time join
	// kernel flushed to the next join depth.
	BlocksEmitted int
	// BlockRowsFiltered counts candidate join rows the block kernel cut
	// with the shared top-k bound before they were materialised.
	BlockRowsFiltered int
	// BoundBroadcasts counts bound-raising k-th-score exchanges between
	// shards during this query (0 on unsharded engines and under
	// WithoutSharding).
	BoundBroadcasts int
	// CrossShardPrunes counts prune decisions taken against a bound that
	// arrived from another shard — work the bound exchange saved that
	// shard-local knowledge alone would not have.
	CrossShardPrunes int
}

// TraceEntry is one internal processing step: a rewrite considered by the
// top-k processor and what happened to it (§5: "TriniT can show internal
// steps").
type TraceEntry struct {
	// Query is the rewritten query.
	Query string
	// Weight is the derivation weight.
	Weight float64
	// Rules lists the IDs of the rules applied in the derivation.
	Rules []string
	// Status is "evaluated", "skipped (weight bound)", "no matches",
	// "missing projection", "canceled", "budget" (the query's cost
	// budget ran out at or before this rewrite), or "panic" (a last,
	// synthetic entry: evaluation panicked and was recovered).
	Status string
	// Detail carries extra status context — for "panic" entries, the
	// panic value and recovered stack. Empty otherwise.
	Detail string `json:",omitempty"`
	// PatternMatches holds per-pattern match-list sizes.
	PatternMatches []int
	// Plan holds the pattern indices in the order the planner processed
	// them (ascending estimated selectivity, refined by join-graph
	// connectivity); nil when the rewrite was not matched.
	Plan []int
	// SemiJoinKept holds the per-pattern number of match-list entries
	// surviving the semi-join reduction pass, in pattern order (nil when
	// the pass did not run).
	SemiJoinKept []int
	// Answers counts answers created or improved by the rewrite.
	Answers int
	// Shard is the shard whose run produced this entry (always 0 on
	// unsharded engines; on a sharded engine the trace carries every
	// shard's entries, shard-major).
	Shard int
}

// Result is the outcome of one query.
type Result struct {
	// Query is the parsed, canonicalised query.
	Query string
	// Answers are the top-k results in descending score order.
	Answers []Answer
	// Notices report structural relaxations that contributed (§5).
	Notices []Notice
	// Suggestions propose canonical resources for textual tokens (§5).
	Suggestions []Suggestion
	// Metrics quantify the processing work.
	Metrics Metrics
	// Trace lists the internal processing steps, one per rewrite.
	Trace []TraceEntry
	// Partial reports that the query was cut short — the request's
	// context was cancelled or its deadline expired — and Answers holds
	// only what had been found by then.
	Partial bool
	// Shards is the number of shards the query was scattered over (0
	// when it ran the single-store pipeline).
	Shards int

	// src links back to the engine state needed to render explanations
	// on demand (nil on results restored from serialisation).
	src *resultSource
}

// resultSource is the explanation raw material a Result keeps so that
// Explain can render lazily: the store version the query ran against is
// immutable and pinned (a runtime cleanup on this struct releases the pin
// once the Result is unreachable), and the raw topk answers are private
// to this result, so reading them later is safe — even after the version
// has been superseded by ingest or compaction.
type resultSource struct {
	ver   *storeVersion
	st    *store.Store
	query *query.Query
	raw   []topk.Answer
	// stores[i] is the store raw[i]'s derivation must be resolved
	// against — the winning shard's store on a sharded run, whose triple
	// IDs are shard-local. nil means every answer reads st.
	stores []*store.Store
}

// store returns the store answer i's derivation resolves against.
func (s *resultSource) store(i int) *store.Store {
	if s.stores != nil && i < len(s.stores) && s.stores[i] != nil {
		return s.stores[i]
	}
	return s.st
}

// Explain renders the explanation of Answers[i] (0-based), computing it
// on demand when the query ran with WithoutExplanations and reusing the
// eager rendering otherwise. The computed explanation is memoised into
// Answers[i].Explanation. Explain is not safe for concurrent use on the
// same Result.
func (r *Result) Explain(i int) (Explanation, error) {
	if i < 0 || i >= len(r.Answers) {
		return Explanation{}, fmt.Errorf("trinit: Explain(%d): result has %d answers", i, len(r.Answers))
	}
	if r.Answers[i].Explanation.Text != "" {
		return r.Answers[i].Explanation, nil
	}
	if r.src == nil || i >= len(r.src.raw) {
		return Explanation{}, errors.New("trinit: result carries no explanation source")
	}
	ex := explain.Explain(r.src.store(i), r.src.query, r.src.raw[i])
	pub := publicExplanation(ex)
	r.Answers[i].Explanation = pub
	return pub, nil
}

// QueryMode selects the per-query processing strategy for WithMode.
type QueryMode int

const (
	// ModeDefault is the engine's mode: the incremental strategy.
	ModeDefault QueryMode = iota
	// ModeIncremental is the paper's adaptive top-k strategy.
	ModeIncremental
	// ModeExhaustive forces full evaluation of every rewrite — the
	// correctness baseline; identical answers, more work.
	ModeExhaustive
)

// queryConfig is the resolved option set of one query. The zero value
// reproduces the classic Query behaviour exactly.
type queryConfig struct {
	k         int
	timeout   time.Duration
	mode      QueryMode
	budget    Budget
	noTrace   bool
	noExplain bool
	noShard   bool
}

// QueryOption is a per-query knob of QueryContext, QueryStream and
// AskContext. Options scope to the one call that receives them; the
// engine's configuration is never touched.
type QueryOption func(*queryConfig)

// WithK overrides the engine's default answer count for this query
// (values < 1 are ignored; a query LIMIT below k still applies).
func WithK(k int) QueryOption {
	return func(c *queryConfig) {
		if k > 0 {
			c.k = k
		}
	}
}

// WithTimeout derives a deadline for this query from the call's context.
// On expiry the query returns the answers found so far with
// Result.Partial set and an error wrapping ErrCanceled and
// context.DeadlineExceeded.
func WithTimeout(d time.Duration) QueryOption {
	return func(c *queryConfig) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// WithoutTrace skips collecting the per-rewrite processing trace,
// trimming allocation on the hot path for callers that never read it.
func WithoutTrace() QueryOption {
	return func(c *queryConfig) { c.noTrace = true }
}

// WithoutExplanations skips the eager rendering of per-answer
// explanations — the expensive part of result assembly for high-QPS
// callers that only want bindings. Explanations stay available on
// demand through Result.Explain.
func WithoutExplanations() QueryOption {
	return func(c *queryConfig) { c.noExplain = true }
}

// WithoutSharding runs this one query on the engine's full store
// through the single-store pipeline, bypassing the shard coordinator of
// an Options.Shards engine. Answers are identical by the sharding
// guarantee — this is the in-API oracle for differential testing, and
// an escape hatch for latency-critical point queries on small stores.
// A no-op on unsharded engines.
func WithoutSharding() QueryOption {
	return func(c *queryConfig) { c.noShard = true }
}

// WithMode overrides the engine's processing mode for this query.
func WithMode(m QueryMode) QueryOption {
	return func(c *queryConfig) { c.mode = m }
}

// WithBudget caps this query's evaluation work, overriding the engine's
// Options.DefaultBudget. A query that exhausts its budget stops at the
// processor's next poll point and returns the answers found so far:
// Result.Partial is set and the error wraps ErrBudgetExhausted — a
// sound partial top-k, never an empty error. Exhausted rewrites are
// marked with a "budget" trace status.
func WithBudget(b Budget) QueryOption {
	return func(c *queryConfig) { c.budget = b }
}

// EventType discriminates the events of a streaming query.
type EventType int

const (
	// EventProvisional reports an answer the incremental processor just
	// admitted into (or improved within) its running top-k. Provisional
	// answers may later be displaced by better ones, and an answer that
	// merely ties the k-th score can reach the final ranking without a
	// prior provisional event — the EventAnswer sequence is
	// authoritative.
	EventProvisional EventType = iota
	// EventAnswer reports one final ranked answer, in rank order.
	EventAnswer
	// EventDone is the terminal event of every stream whose callback
	// did not itself fail.
	EventDone
)

// String names the event type as it appears on the wire (SSE event
// names and REPL prefixes).
func (t EventType) String() string {
	switch t {
	case EventProvisional:
		return "provisional"
	case EventAnswer:
		return "answer"
	case EventDone:
		return "done"
	}
	return fmt.Sprintf("EventType(%d)", int(t))
}

// AnswerEvent is one notification of a streaming query (QueryStream).
type AnswerEvent struct {
	// Type discriminates the payload.
	Type EventType
	// Answer is the admitted (provisional) or final answer; nil on the
	// done event. Provisional answers carry no explanation — render
	// them with Result.Explain after the stream completes if needed.
	Answer *Answer
	// Rank is the 1-based final rank (EventAnswer only).
	Rank int
	// Partial mirrors Result.Partial on the done event.
	Partial bool
	// Metrics mirrors Result.Metrics on the done event.
	Metrics *Metrics
}

// Query parses and evaluates a query with relaxation and top-k ranking.
// The engine must be frozen. It is QueryContext without cancellation —
// a background context and the default options.
func (e *Engine) Query(text string) (*Result, error) {
	return e.QueryContext(context.Background(), text)
}

// QueryContext parses and evaluates a query with relaxation and top-k
// ranking, scoped to ctx: cancellation and deadline expiry are observed
// at every rewrite boundary and every few join branches, returning the
// answers found so far with Result.Partial set and an error wrapping
// ErrCanceled. Options override the engine defaults for this call only.
// The engine must be frozen.
//
// QueryContext is safe for concurrent use: it holds no engine-wide lock
// during evaluation. Each call snapshots the rule set, borrows an
// executor from the pool, and runs it against the immutable store and
// the shared match-list cache.
func (e *Engine) QueryContext(ctx context.Context, text string, opts ...QueryOption) (*Result, error) {
	return e.queryContext(ctx, text, nil, opts)
}

// QueryStream evaluates a query like QueryContext while streaming
// processing events to fn: zero or more EventProvisional events as the
// incremental processor admits answers into its running top-k, then one
// EventAnswer per final ranked answer, then a terminal EventDone. Calls
// to fn are serialised, never concurrent; on a sharded engine
// provisional events may arrive from shard goroutines rather than the
// calling goroutine. An error returned from fn stops the query
// and is returned verbatim (no done event follows). The final Result is
// returned as from QueryContext.
func (e *Engine) QueryStream(ctx context.Context, text string, fn func(AnswerEvent) error, opts ...QueryOption) (*Result, error) {
	return e.queryContext(ctx, text, fn, opts)
}

// queryContext is the request-scoped query core behind Query,
// QueryContext and QueryStream.
func (e *Engine) queryContext(ctx context.Context, text string, fn func(AnswerEvent) error, opts []QueryOption) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	q, err := query.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrParse, err)
	}
	e.mu.RLock()
	frozen, exp := e.frozen, e.expander
	admit, defBudget, group := e.admit, e.defBudget, e.group
	e.mu.RUnlock()
	if !frozen {
		return nil, fmt.Errorf("%w (call Freeze before querying)", ErrNotFrozen)
	}
	if cfg.noShard {
		group = nil
	}
	// Pin the published store version: the query reads this one store
	// state — and the cache, executor pool and suggester derived from it —
	// for its whole lifetime, no matter how many ingest batches or
	// compactions publish successors meanwhile.
	ver := e.currentVersion()
	defer ver.unpin()
	st := ver.st
	dict := st.Dict()
	q.Projection = q.ProjectedVars()

	// Admission: a query weighs as many units as evaluation goroutines
	// it occupies, so capacity bounds total evaluation concurrency, not
	// query count. Shed queries never reach expansion — no work is
	// wasted on a query the engine cannot run. A query runs on one
	// goroutine and weighs 1; a sharded query scatters its evaluation
	// over every shard at once and weighs N.
	e.queriesTotal.Add(1)
	weight := int64(1)
	if group != nil {
		weight = int64(group.Shards())
	}
	if err := admit.Acquire(ctx, weight); err != nil {
		if errors.Is(err, admission.ErrQueueFull) || errors.Is(err, admission.ErrDeadline) {
			e.queriesShed.Add(1)
			return nil, fmt.Errorf("%w: %w", ErrOverloaded, err)
		}
		// The caller went away while queued: a cancellation, not a shed.
		return nil, fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	defer admit.Release(weight)
	e.inFlight.Add(1)
	defer e.inFlight.Add(-1)

	rewrites, runErr := exp.ExpandContext(ctx, q)

	// Streaming: fn errors cancel the run through a private context, so
	// the processor unwinds at its next cancellation check.
	runCtx := ctx
	var fnErr error
	rcfg := topk.RunConfig{K: cfg.k, NoTrace: cfg.noTrace, Budget: cfg.budget}
	if !budgetLimited(cfg.budget) {
		rcfg.Budget = defBudget
	}
	if cfg.mode == ModeExhaustive {
		rcfg.Mode, rcfg.ModeSet = topk.Exhaustive, true
	}
	if fn != nil {
		var cancelRun context.CancelFunc
		runCtx, cancelRun = context.WithCancel(ctx)
		defer cancelRun()
		rcfg.Emit = func(a topk.Answer) {
			if fnErr != nil {
				return
			}
			pub := publicAnswer(dict, a)
			if err := fn(AnswerEvent{Type: EventProvisional, Answer: &pub}); err != nil {
				fnErr = err
				cancelRun()
			}
		}
	}

	var answers []topk.Answer
	var metrics topk.Metrics
	var traces []TraceEntry
	var shardStores []*store.Store
	var broadcasts int64
	switch {
	case runErr != nil:
	case group != nil:
		// Sharded scatter-gather. The coordinator is its own panic
		// boundary — a shard panic cancels the siblings and surfaces as
		// a *topk.PanicError return — so no recover is needed here.
		e.shardedQueries.Add(1)
		var sres shard.RunResult
		sres, runErr = group.Run(runCtx, q, rewrites, rcfg)
		answers, metrics, broadcasts = sres.Answers, sres.Metrics, sres.Broadcasts
		// Explanations must resolve each answer's derivation against the
		// store that produced it: derivation triple IDs are store-local,
		// and residual answers live in the retained full store.
		shardStores = make([]*store.Store, len(sres.Answers))
		for i, si := range sres.Shards {
			shardStores[i] = group.AnswerStore(si)
		}
		e.boundBroadcasts.Add(sres.Broadcasts)
		e.crossShardPrunes.Add(int64(sres.Metrics.CrossShardPrunes))
		e.shardMergeNanos.Add(int64(sres.MergeTime))
		e.residualRewrites.Add(int64(sres.Residual))
		if !cfg.noTrace {
			// Shard-major: shard 0's full rewrite trace, then shard 1's…
			// Each entry names its shard, so provenance survives the
			// concatenation.
			for si, tr := range sres.Traces {
				for _, t := range tr {
					traces = append(traces, publicTraceEntry(t, si))
				}
			}
		}
	default:
		// The query-level panic boundary: a panic unwinding out of the
		// evaluation is converted to a *topk.PanicError here, keeping the
		// engine — and the daemon above it — serviceable. The borrowed
		// executor is returned to the pool only on a clean exit: a panic
		// may leave its scratch state mid-join.
		func() {
			pool := ver.execs
			ev := pool.Get().(*topk.Executor)
			defer func() {
				if rec := recover(); rec != nil {
					runErr = &topk.PanicError{Value: rec, Stack: debug.Stack()}
					return
				}
				pool.Put(ev)
			}()
			answers, metrics, runErr = ev.Run(runCtx, q, rewrites, rcfg)
			// TraceLen sizes the conversion up front and skips the
			// LastTrace copy entirely for empty traces — the copy would be
			// pure waste when only the length is needed.
			if n := ev.TraceLen(); !cfg.noTrace && n > 0 {
				traces = make([]TraceEntry, 0, n)
				for _, t := range ev.LastTrace() {
					traces = append(traces, publicTraceEntry(t, 0))
				}
			}
		}()
	}
	// Map processor-level degradations to the public typed errors (and
	// their counters). Panics outrank budget exhaustion; both leave the
	// Result valid and Partial.
	if runErr != nil {
		var pe *topk.PanicError
		switch {
		case errors.As(runErr, &pe):
			e.panicsRecovered.Add(1)
			// A synthetic last trace entry keeps the stack.
			if !cfg.noTrace {
				traces = append(traces, TraceEntry{Status: "panic", Detail: pe.Error() + "\n" + string(pe.Stack)})
			}
			runErr = fmt.Errorf("%w: %v", ErrInternal, pe.Value)
		case errors.Is(runErr, topk.ErrBudgetExhausted):
			e.budgetExhausted.Add(1)
			runErr = fmt.Errorf("%w: %w", ErrBudgetExhausted, runErr)
		}
	}
	if fnErr != nil {
		// The callback failed: the private-context cancellation above
		// is an implementation detail, not a partial query.
		runErr = fnErr
	}
	metrics.RewritesTotal = len(rewrites)

	res := &Result{
		Query:   q.String(),
		Trace:   traces,
		Partial: runErr != nil && fnErr == nil,
		Metrics: Metrics{
			RewritesTotal:     metrics.RewritesTotal,
			RewritesEvaluated: metrics.RewritesEvaluated,
			RewritesSkipped:   metrics.RewritesSkipped,
			SortedAccesses:    metrics.SortedAccesses,
			IndexScanned:      metrics.IndexScanned,
			PatternsMatched:   metrics.PatternsMatched,
			JoinBranches:      metrics.JoinBranches,
			PrunedBranches:    metrics.PrunedBranches,
			HashProbes:        metrics.HashProbes,
			SemiJoinDropped:   metrics.SemiJoinDropped,
			TokenResolutions:  metrics.TokenResolutions,
			ScanFallbacks:     metrics.ScanFallbacks,
			BlocksEmitted:     metrics.BlocksEmitted,
			BlockRowsFiltered: metrics.BlockRowsFiltered,
			BoundBroadcasts:   int(broadcasts),
			CrossShardPrunes:  metrics.CrossShardPrunes,
		},
	}
	if group != nil {
		res.Shards = group.Shards()
	}
	if cfg.noExplain {
		// Keep the raw answers only when Explain may still need them: on
		// the eager path every explanation is already rendered, and
		// retaining the derivations would just pin the rewrite data for
		// the result's lifetime. The source holds its own version pin —
		// explanations dereference the pinned store, possibly long after
		// this version is retired — released by a runtime cleanup when the
		// source becomes unreachable.
		res.src = &resultSource{ver: ver, st: st, query: q, raw: answers, stores: shardStores}
		ver.pin()
		runtime.AddCleanup(res.src, releaseVersionPin, ver)
	}
	for i, a := range answers {
		pub := publicAnswer(dict, a)
		if !cfg.noExplain {
			est := st
			if shardStores != nil {
				est = shardStores[i]
			}
			pub.Explanation = publicExplanation(explain.Explain(est, q, a))
		}
		res.Answers = append(res.Answers, pub)
	}
	for _, n := range suggest.RuleNotices(answers) {
		res.Notices = append(res.Notices, Notice{
			RuleID:  n.RuleID,
			Origin:  n.Origin,
			Rule:    n.Rule,
			Message: n.Message,
			Answers: n.Answers,
		})
	}
	for _, s := range ver.sug.Suggest(q) {
		res.Suggestions = append(res.Suggestions, Suggestion{
			Token:    s.Token,
			Resource: s.Resource,
			Overlap:  s.Overlap,
			Position: s.Position,
		})
	}

	if fn != nil && fnErr == nil {
		// Final ranked answers, then the terminal done event — sent
		// even for partial results so streams always terminate cleanly.
		for i := range res.Answers {
			if err := fn(AnswerEvent{Type: EventAnswer, Answer: &res.Answers[i], Rank: i + 1}); err != nil {
				fnErr = err
				break
			}
		}
		if fnErr == nil {
			m := res.Metrics
			fnErr = fn(AnswerEvent{Type: EventDone, Partial: res.Partial, Metrics: &m})
		}
		if fnErr != nil {
			return res, fnErr
		}
	}
	if runErr != nil {
		if fnErr != nil || (!errors.Is(runErr, context.Canceled) && !errors.Is(runErr, context.DeadlineExceeded)) {
			return res, runErr
		}
		return res, fmt.Errorf("%w: %w", ErrCanceled, runErr)
	}
	return res, nil
}

// budgetLimited reports whether any cap of b is set.
func budgetLimited(b Budget) bool {
	return b.JoinBranches > 0 || b.HashProbes > 0 || b.Blocks > 0
}

// publicTraceEntry converts one processor trace record, tagging the
// shard it came from (0 on the single-store pipeline).
func publicTraceEntry(t topk.RewriteTrace, shard int) TraceEntry {
	return TraceEntry{
		Query:          t.Query,
		Weight:         t.Weight,
		Rules:          t.Rules,
		Status:         t.Status,
		PatternMatches: t.PatternMatches,
		Plan:           t.Plan,
		SemiJoinKept:   t.SemiJoinKept,
		Answers:        t.Answers,
		Shard:          shard,
	}
}

// publicAnswer converts a processor answer to its public form, without
// an explanation. dict must be the dictionary of the store version the
// answer was computed against.
func publicAnswer(dict *rdf.Dict, a topk.Answer) Answer {
	pub := Answer{
		Bindings: make(map[string]string, len(a.Bindings)),
		Score:    a.Score,
	}
	for v, id := range a.Bindings {
		pub.Bindings[v] = dict.Term(id).Text
	}
	return pub
}

func publicExplanation(ex explain.Explanation) Explanation {
	out := Explanation{
		OriginalQuery:  ex.OriginalQuery,
		RewrittenQuery: ex.RewrittenQuery,
		Weight:         ex.Weight,
		Text:           ex.String(),
	}
	conv := func(ts []explain.TripleInfo) []TripleEvidence {
		out := make([]TripleEvidence, len(ts))
		for i, t := range ts {
			out[i] = TripleEvidence{
				Triple:     t.Text,
				Pattern:    t.Pattern,
				Source:     t.Source.String(),
				Confidence: t.Conf,
				Prob:       t.Prob,
				Doc:        t.Doc,
				Sentence:   t.Sentence,
			}
		}
		return out
	}
	out.KGTriples = conv(ex.KGTriples)
	out.XKGTriples = conv(ex.XKGTriples)
	for _, r := range ex.Rules {
		out.Rules = append(out.Rules, RuleEvidence{ID: r.ID, Rule: r.Rule, Origin: r.Origin, Weight: r.Weight})
	}
	return out
}

// Complete returns auto-completions for a prefix typed into an S, P or O
// field (§5). The engine must be frozen. Safe for concurrent use: each
// store version's suggester trie is immutable once built.
func (e *Engine) Complete(prefix string, limit int) []Completion {
	e.mu.RLock()
	frozen := e.frozen
	e.mu.RUnlock()
	if !frozen {
		return nil
	}
	ver := e.currentVersion()
	defer ver.unpin()
	var out []Completion
	for _, c := range ver.sug.Complete(prefix, limit) {
		out = append(out, Completion{Text: c.Text, Weight: c.Weight})
	}
	return out
}

// Stats summarises the extended knowledge graph.
type Stats struct {
	Triples        int
	KGTriples      int
	XKGTriples     int
	Terms          int
	Resources      int
	Literals       int
	Tokens         int
	Predicates     int
	TokenPreds     int
	ResourcePreds  int
	ProvenanceRecs int
	Rules          int
}

// Stats returns summary statistics of the engine's XKG.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s := e.st.Stats()
	return Stats{
		Triples:        s.Triples,
		KGTriples:      s.KGTriples,
		XKGTriples:     s.XKGTriples,
		Terms:          s.Terms,
		Resources:      s.Resources,
		Literals:       s.Literals,
		Tokens:         s.Tokens,
		Predicates:     s.Predicates,
		TokenPreds:     s.TokenPreds,
		ResourcePreds:  s.ResourcePreds,
		ProvenanceRecs: s.ProvenanceRecs,
		Rules:          len(e.rules),
	}
}

// CacheStats reports the activity of the engine's shared match-list cache
// and of the selectivity planner (§4 processing shared across queries).
// See topk.CacheStats for the field documentation.
type CacheStats = topk.CacheStats

// CacheStats returns a snapshot of match-list cache and planner activity
// for the current store version (each published version starts a fresh
// cache — match lists are relative to one store state).
func (e *Engine) CacheStats() CacheStats {
	v := e.currentVersion()
	defer v.unpin()
	return v.cache.Stats()
}

// AdmissionStats snapshots the admission controller's counters. See
// admission.Stats for the field documentation.
type AdmissionStats = admission.Stats

// ServingStats reports the engine's serving health: query and
// degradation counters plus the admission controller's state. All
// counters are cumulative since engine construction.
type ServingStats struct {
	// QueriesTotal counts queries that reached admission (parse and
	// frozen checks passed), including shed ones.
	QueriesTotal uint64
	// InFlight is the number of queries currently evaluating.
	InFlight int64
	// QueriesShed counts queries rejected by admission control
	// (ErrOverloaded).
	QueriesShed uint64
	// BudgetExhausted counts queries degraded by cost-budget exhaustion
	// (ErrBudgetExhausted).
	BudgetExhausted uint64
	// PanicsRecovered counts evaluation panics converted to ErrInternal
	// at the query or worker boundary.
	PanicsRecovered uint64
	// Admission is the admission controller's snapshot (zero when
	// admission is disabled).
	Admission AdmissionStats
}

// ServingStats returns a snapshot of the engine's serving counters.
func (e *Engine) ServingStats() ServingStats {
	e.mu.RLock()
	admit := e.admit
	e.mu.RUnlock()
	return ServingStats{
		QueriesTotal:    e.queriesTotal.Load(),
		InFlight:        e.inFlight.Load(),
		QueriesShed:     e.queriesShed.Load(),
		BudgetExhausted: e.budgetExhausted.Load(),
		PanicsRecovered: e.panicsRecovered.Load(),
		Admission:       admit.Stats(),
	}
}

// Reshard rebuilds the engine's sharded-execution coordinator over n
// subject-hashed partitions; n <= 1 returns the engine to the
// single-store pipeline. The engine must be frozen. Rankings are
// byte-identical at every n, so resharding is safe mid-traffic:
// in-flight queries keep the coordinator (or the unsharded pipeline)
// they started with. The cumulative sharding counters are not reset.
func (e *Engine) Reshard(n int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.frozen {
		return fmt.Errorf("%w: Reshard requires a frozen engine", ErrNotFrozen)
	}
	dropGroupVer := func() {
		if e.groupVer != nil {
			e.groupVer.unpin()
			e.groupVer = nil
		}
	}
	if n <= 1 {
		e.group = nil
		dropGroupVer()
		return nil
	}
	g, err := shard.NewGroup(e.st, n, e.topkOptions(),
		shard.PartitionOptions{ReplicateFactor: e.opts.ShardReplicateFactor})
	if err != nil {
		return err
	}
	e.group = g
	// Pin the partitioned version for the new group's lifetime (the shard
	// stores reference its columns), releasing the previous group's pin.
	dropGroupVer()
	if e.ver != nil {
		e.groupVer = e.ver
		e.groupVer.pin()
	}
	return nil
}

// topkOptions maps the engine options onto the processor's option set —
// the one configuration every executor (pooled, per-shard, resharded)
// is built from.
func (e *Engine) topkOptions() topk.Options {
	return topk.Options{
		K:           e.opts.K,
		MinTokenSim: e.opts.MinTokenSimilarity,
	}
}

// ShardingStats reports the partitioning and activity of an engine's
// sharded execution. Zero on unsharded engines (Shards == 0).
type ShardingStats struct {
	// Shards is the shard count (Options.Shards), 0 when sharding is
	// off.
	Shards int
	// Triples[j] is shard j's total store size, replicated copies
	// included; Owned[j] counts only the triples shard j owns by subject
	// hash.
	Triples []int
	Owned   []int
	// ReplicatedPreds counts predicates replicated to every shard for
	// join co-location; ReplicatedTriples counts the source triples
	// those predicates contribute (each copied to all shards).
	ReplicatedPreds   int
	ReplicatedTriples int
	// Skew is max(Owned) over mean(Owned): 1.0 is a perfect balance.
	Skew float64
	// ShardedQueries counts queries that ran through the coordinator
	// (WithoutSharding queries are excluded).
	ShardedQueries uint64
	// BoundBroadcasts counts bound-raising k-th-score exchanges between
	// shards; CrossShardPrunes counts prune decisions taken against a
	// bound received from another shard. Both cumulative since
	// construction.
	BoundBroadcasts  int64
	CrossShardPrunes int64
	// MergeTime is the cumulative wall-clock time spent gathering and
	// merging per-shard rankings.
	MergeTime time.Duration
	// ResidualRewrites counts rewrites the coordinator evaluated on the
	// retained full store because the partitioning could not co-locate
	// their joins on any single shard.
	ResidualRewrites int64
}

// ShardingStats returns a snapshot of the engine's sharded-execution
// state, or the zero value when the engine is unsharded.
func (e *Engine) ShardingStats() ShardingStats {
	e.mu.RLock()
	group := e.group
	e.mu.RUnlock()
	if group == nil {
		return ShardingStats{}
	}
	ps := group.Stats()
	return ShardingStats{
		Shards:            group.Shards(),
		Triples:           append([]int(nil), ps.Triples...),
		Owned:             append([]int(nil), ps.Owned...),
		ReplicatedPreds:   ps.ReplicatedPreds,
		ReplicatedTriples: ps.ReplicatedTriples,
		Skew:              ps.Skew,
		ShardedQueries:    e.shardedQueries.Load(),
		BoundBroadcasts:   e.boundBroadcasts.Load(),
		CrossShardPrunes:  e.crossShardPrunes.Load(),
		MergeTime:         time.Duration(e.shardMergeNanos.Load()),
		ResidualRewrites:  e.residualRewrites.Load(),
	}
}

// ReadyState classifies why an engine can or cannot usefully accept a
// new query — the /readyz signal. (A fourth state, "still loading from
// disk", exists only at the serving layer: before Open returns there is
// no engine to ask.)
type ReadyState int

const (
	// ReadyOK: frozen and accepting queries.
	ReadyOK ReadyState = iota
	// ReadyNotFrozen: the graph is still being built; queries would
	// fail with ErrNotFrozen.
	ReadyNotFrozen
	// ReadySaturated: admission control is at capacity with a full
	// wait queue; new queries would be shed.
	ReadySaturated
)

// String names the state as /readyz reports it.
func (s ReadyState) String() string {
	switch s {
	case ReadyOK:
		return "ready"
	case ReadyNotFrozen:
		return "not frozen"
	case ReadySaturated:
		return "saturated"
	default:
		return fmt.Sprintf("ReadyState(%d)", int(s))
	}
}

// ReadyState reports the engine's current readiness.
func (e *Engine) ReadyState() ReadyState {
	e.mu.RLock()
	frozen, admit := e.frozen, e.admit
	e.mu.RUnlock()
	switch {
	case !frozen:
		return ReadyNotFrozen
	case admit.Saturated():
		return ReadySaturated
	default:
		return ReadyOK
	}
}

// Ready reports whether the engine can usefully accept a new query
// right now: frozen, and admission (when enabled) is not saturated.
func (e *Engine) Ready() bool {
	return e.ReadyState() == ReadyOK
}

// NewDemoEngine returns an engine preloaded with the paper's running
// example: the Figure 1 KG, the Figure 3 XKG extension, and the Figure 4
// relaxation rules. It is frozen and ready to query.
func NewDemoEngine() *Engine {
	d := dataset.NewDemo()
	e := &Engine{
		opts: (*Options)(nil).withDefaults(),
		st:   d.Store,
	}
	e.setRules(d.Rules)
	e.initQueryPipeline(nil, 0)
	e.frozen = true
	return e
}

// DemoQuery is one of the paper's Figure 2 information needs.
type DemoQuery struct {
	User                   string
	Need                   string
	Query                  string
	Want                   string
	EmptyWithoutRelaxation bool
}

// DemoQueries returns the four Figure 2 queries (users A–D).
func DemoQueries() []DemoQuery {
	var out []DemoQuery
	for _, q := range dataset.NewDemo().Queries {
		out = append(out, DemoQuery{
			User:                   q.User,
			Need:                   q.Need,
			Query:                  q.Query,
			Want:                   q.Want,
			EmptyWithoutRelaxation: q.EmptyWithoutRelaxation,
		})
	}
	return out
}

// SyntheticConfig configures the synthetic world generator that stands in
// for the paper's Yago2s + ClueWeb substrate (see DESIGN.md).
type SyntheticConfig struct {
	Seed         int64
	People       int
	Cities       int
	Countries    int
	Universities int
	Fields       int
	Prizes       int
	Leagues      int
}

// DefaultSyntheticConfig returns the small default world.
func DefaultSyntheticConfig() SyntheticConfig {
	c := dataset.DefaultConfig()
	return SyntheticConfig{
		Seed: c.Seed, People: c.People, Cities: c.Cities,
		Countries: c.Countries, Universities: c.Universities,
		Fields: c.Fields, Prizes: c.Prizes, Leagues: c.Leagues,
	}
}

// EvalQuery is one workload query with graded relevance judgments.
type EvalQuery struct {
	ID        string
	Category  string
	Text      string
	Var       string
	Judgments map[string]float64
}

// NewSyntheticEngine generates a synthetic world, builds the XKG from its
// corpus, freezes the engine, registers the default manual rules plus
// mined rules, and returns the engine together with a workload of
// evaluation queries.
func NewSyntheticEngine(cfg SyntheticConfig, numQueries int) (*Engine, []EvalQuery, error) {
	dcfg := dataset.DefaultConfig()
	if cfg.Seed != 0 {
		dcfg.Seed = cfg.Seed
	}
	if cfg.People > 0 {
		dcfg.People = cfg.People
	}
	if cfg.Cities > 0 {
		dcfg.Cities = cfg.Cities
	}
	if cfg.Countries > 0 {
		dcfg.Countries = cfg.Countries
	}
	if cfg.Universities > 0 {
		dcfg.Universities = cfg.Universities
	}
	if cfg.Fields > 0 {
		dcfg.Fields = cfg.Fields
	}
	if cfg.Prizes > 0 {
		dcfg.Prizes = cfg.Prizes
	}
	if cfg.Leagues > 0 {
		dcfg.Leagues = cfg.Leagues
	}
	world := dataset.Generate(dcfg)

	e := New(nil)
	world.PopulateKG(e.st)
	docs := make([]Document, len(world.Docs()))
	for i, d := range world.Docs() {
		docs[i] = Document{ID: d.ID, Text: d.Text}
	}
	if _, err := e.ExtendFromDocuments(docs); err != nil {
		return nil, nil, err
	}
	e.Freeze()
	if err := e.AddRule("advisor-inv", "?x hasAdvisor ?y => ?y hasStudent ?x", 1.0); err != nil {
		return nil, nil, err
	}
	if _, err := e.MineRules(DefaultMiningConfig()); err != nil {
		return nil, nil, err
	}

	var queries []EvalQuery
	for _, wq := range world.Workload(numQueries) {
		j := make(map[string]float64, len(wq.Judgments))
		for k, v := range wq.Judgments {
			j[k] = v
		}
		queries = append(queries, EvalQuery{
			ID: wq.ID, Category: wq.Category, Text: wq.Text, Var: wq.Var, Judgments: j,
		})
	}
	sort.Slice(queries, func(i, j int) bool { return queries[i].ID < queries[j].ID })
	return e, queries, nil
}

// Ask translates a natural-language question into an extended
// triple-pattern query and evaluates it (§6: TriniT as a QA back-end).
// It returns the result together with the generated query text. Questions
// outside the template repertoire return an error wrapping ErrParse; the
// caller can fall back to the structured Query syntax. It is AskContext
// without cancellation.
func (e *Engine) Ask(question string) (*Result, string, error) {
	return e.AskContext(context.Background(), question)
}

// AskContext is Ask scoped to ctx, with per-query options — the same
// cancellation and option semantics as QueryContext.
func (e *Engine) AskContext(ctx context.Context, question string, opts ...QueryOption) (*Result, string, error) {
	e.mu.RLock()
	frozen := e.frozen
	e.mu.RUnlock()
	if !frozen {
		return nil, "", fmt.Errorf("%w (call Freeze before asking)", ErrNotFrozen)
	}
	ver := e.currentVersion()
	tl, err := ver.tr.Translate(question)
	ver.unpin()
	if err != nil {
		return nil, "", fmt.Errorf("%w: %w", ErrParse, err)
	}
	res, err := e.QueryContext(ctx, tl.Query, opts...)
	if err != nil {
		return res, tl.Query, err
	}
	return res, tl.Query, nil
}

// Save writes the engine's extended knowledge graph and relaxation rules
// to w in the line-oriented TNT format (see internal/serial). A saved
// engine can be restored with Load, skipping corpus re-extraction.
func (e *Engine) Save(w io.Writer) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := serial.WriteStore(w, e.st); err != nil {
		return err
	}
	return serial.WriteRules(w, e.rules)
}

// Load restores an engine from a TNT stream written by Save (or authored
// by hand). The returned engine is not frozen, so further facts and
// documents may be added before calling Freeze.
func Load(r io.Reader, opts *Options) (*Engine, error) {
	e := New(opts)
	dec, err := serial.Read(r, e.st)
	if err != nil {
		return nil, err
	}
	e.setRules(dec.Rules)
	return e, nil
}

// SaveFile and LoadFile are path-based conveniences over Save and Load.
func (e *Engine) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := e.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile restores an engine from a file written by SaveFile.
func LoadFile(path string, opts *Options) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, opts)
}
