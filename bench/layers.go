package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"trinit"
	"trinit/bench/check"
	"trinit/bench/trace"
	"trinit/internal/explain"
	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/relax"
	"trinit/internal/score"
	"trinit/internal/serial"
	"trinit/internal/server"
	"trinit/internal/shard"
	"trinit/internal/store"
	"trinit/internal/suggest"
	"trinit/internal/topk"
)

// This file is the traced run (--trace 1). Every layer is measured from
// outside: by timing calls into its public functions, and by reading the
// counters the program already exports. Three parts:
//
//  1. the workload's own load, with tracing off, while the exported
//     counters (cache, admission, versions, Go runtime) are read around it;
//  2. a serial replay of a fixed sample of the workload's requests with a
//     span around every public call — the live engine first, then the same
//     request re-driven stage by stage on the benchmark's own executor;
//  3. the ingest path and the sharded path, stage by stage.

// Sizes of the traced run's fixed samples.
const (
	maxReplay     = 2000 // requests in the serial replay, at most
	stageBatches  = 32   // ingest batches driven through each ingest stage
	maxShardQuery = 200  // requests re-run through shard.Group
	openCycles    = 3    // opens that open_ms and open_mapped_ms are medians of
)

// counters is what the exported counters said about one load phase.
type counters struct {
	queries, failed         int
	hits, misses, evictions int
	pinnedMax               int64
	shed                    uint64
	admissionWait           time.Duration
	mallocs, allocBytes     uint64
	gcPause                 time.Duration
	latency, lag            []time.Duration
	// ingestMax is the longest a batch of the phase's writer took.
	ingestMax time.Duration
}

// cachePoller accumulates match-list cache counters across store
// versions: every published version starts a fresh cache, so a drop in
// the running totals means a new version and the new totals count in full.
type cachePoller struct {
	prev                    trinit.CacheStats
	hits, misses, evictions int
}

func (p *cachePoller) observe(cur trinit.CacheStats) {
	base := p.prev
	if cur.Hits+cur.Misses < base.Hits+base.Misses {
		base = trinit.CacheStats{}
	}
	p.hits += cur.Hits - base.Hits
	p.misses += cur.Misses - base.Misses
	p.evictions += cur.Evictions - base.Evictions
	p.prev = cur
}

// counterPhase runs the workload's load for d and reads the exported
// counters around (and, for the per-version ones, during) it.
func (r *run) counterPhase(s *serving, offset int, d time.Duration) counters {
	e := s.engine
	poll := cachePoller{prev: e.CacheStats()}
	var c counters
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
			case <-stop:
				return
			}
			poll.observe(e.CacheStats())
			c.pinnedMax = max(c.pinnedMax, e.MemoryStats().PinnedVersions)
		}
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	shedBefore := e.ServingStats().QueriesShed

	w := r.measure(s, offset, d)

	close(stop)
	<-polled
	poll.observe(e.CacheStats())
	runtime.ReadMemStats(&after)
	serving := e.ServingStats()

	if n := w.load.tally.Failed(); n > 0 {
		r.problemf("counter phase: %d of %d requests failed (%s)", n, w.load.tally.Attempted(), w.load.tally.FirstFailure)
	}
	c.queries, c.failed = w.load.tally.Succeeded(), w.load.tally.Failed()
	c.hits, c.misses, c.evictions = poll.hits, poll.misses, poll.evictions
	c.shed = serving.QueriesShed - shedBefore
	c.admissionWait = serving.Admission.AvgWait
	c.mallocs = after.Mallocs - before.Mallocs
	c.allocBytes = after.TotalAlloc - before.TotalAlloc
	c.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	c.latency, c.lag = w.load.latency, w.load.lag
	if w.ingest != nil {
		c.lag = append(c.lag, w.ingest.lag...)
		c.ingestMax = quantile(sorted(w.ingest.latency), 1)
		c.failed += w.ingest.failed
		if w.ingest.failed > 0 {
			r.problemf("counter phase: %d ingest batches failed: %v", w.ingest.failed, w.ingest.firstErr)
		}
	}
	return c
}

// stager re-drives requests stage by stage over the corpus segment, on an
// executor configured like the engine's.
type stager struct {
	mapped   *serial.MappedSnapshot
	st       *store.Store
	expander *relax.Expander
	matcher  *score.Matcher
	topts    topk.Options
	cacheCap int
	sug      *suggest.Suggester
	sugBuild time.Duration
}

func newStager(snapshot string, opts trinit.Options) (*stager, error) {
	m, err := serial.OpenSnapshotMapped(snapshot)
	if err != nil {
		return nil, fmt.Errorf("stages: %w", err)
	}
	// The engine's own defaults (trinit.Options.withDefaults), restated:
	// the stage replay must expand and evaluate exactly as the engine does.
	exp := relax.NewExpander(m.Rules)
	if opts.MaxRelaxationDepth > 0 {
		exp.MaxDepth = opts.MaxRelaxationDepth
	}
	if opts.MaxRewrites > 0 {
		exp.MaxRewrites = opts.MaxRewrites
	}
	if opts.MinRewriteWeight > 0 {
		exp.MinWeight = opts.MinRewriteWeight
	}
	g := &stager{
		mapped:   m,
		st:       m.Store,
		expander: exp,
		topts:    topk.Options{K: opts.K, MinTokenSim: opts.MinTokenSimilarity},
		cacheCap: opts.MatchCacheSize,
	}
	g.matcher = topk.MatcherFor(g.st, g.topts)
	begin := time.Now()
	g.sug = suggest.New(g.st)
	g.sugBuild = time.Since(begin)
	return g, nil
}

// replayed is what the traced replay counted beside its spans.
type replayed struct {
	requests, failed int
	// misses is the live engine's match-list cache misses during the
	// natural-state trinit.query calls.
	misses          int
	rewrites, lists int
	indexScanned    int
	cold, warm      topk.Metrics
	responseBytes   int64
	// listBuild is, per request, misses × that request's mean cold list
	// build time: what the workload actually paid for list building.
	listBuild []time.Duration
	// attributed is, per request, the sum of the stage times that make up
	// a query; natural the trinit.query time they are compared with.
	attributed, natural []time.Duration
}

// Span names of the traced replay. Leaves carry the time; "request",
// "stages", "score.list_build", "store.probe" and "explain" are parents
// whose self time is the benchmark's own glue.
const (
	spanQuery     = "trinit.query"      // Engine.QueryContext, cache as the workload left it
	spanQueryWarm = "trinit.query.warm" // the same call again, now warm
	spanHandler   = "server.handler"    // the handler through httptest, warm
	spanRoundTrip = "http.roundtrip"    // the real loopback round trip, warm
	spanParse     = "query.parse"
	spanExpand    = "relax.expand"
	spanMatch     = "score.match" // one cold MatchPatternCounted
	spanStoreM    = "store.match"
	spanStoreC    = "store.count"
	spanStoreT    = "store.match_token"
	spanCold      = "topk.run_cold"
	spanWarm      = "topk.run_warm"
	spanExplain   = "explain.answer" // one explain.Explain
	spanSuggest   = "suggest.suggest"
	spanEncode    = "server.encode"
)

// replay is the traced serial replay: each sampled request goes through
// the live engine (direct call, handler, loopback round trip) and then
// stage by stage through the stager, a span around every call. It stops
// after budget or maxReplay requests, cycling a sequence shorter than that.
func (r *run) replay(s *serving, g *stager, rec *trace.Recorder, budget time.Duration) replayed {
	var out replayed
	ctx := context.Background()
	var buf bytes.Buffer
	begin := time.Now()
	for rid := 0; rid < maxReplay && time.Since(begin) < budget; rid++ {
		req := r.spec.Requests[rid%len(r.spec.Requests)]
		out.requests++
		streamed := req.Path != "/api/query"
		// The options the handler of this endpoint passes to the engine.
		opts := []trinit.QueryOption{trinit.WithoutTrace()}
		if streamed {
			opts = append(opts, trinit.WithoutExplanations())
		}
		span := func(name string, parent int, f func()) time.Duration { return rec.Time(name, parent, rid, f) }
		root := rec.Start("request", trace.NoParent, rid)

		missesBefore := s.engine.CacheStats().Misses
		var res *trinit.Result
		natural := span(spanQuery, root, func() {
			var err error
			if res, err = s.engine.QueryContext(ctx, req.Query, opts...); err != nil {
				r.problemf("replay: %q: %v", req.Query, err)
			}
		})
		misses := s.engine.CacheStats().Misses - missesBefore
		if res == nil {
			rec.End(root)
			continue
		}
		if req.Oracle && !r.oracle.Matches(req.Query, rankingOf(res)) {
			r.problemf("replay: %q differs from the oracle", req.Query)
		}
		span(spanQueryWarm, root, func() { s.engine.QueryContext(ctx, req.Query, opts...) })
		span(spanHandler, root, func() {
			hr := httptest.NewRequest(http.MethodGet, req.Path+"?q="+url.QueryEscape(req.Query), nil)
			s.handler.ServeHTTP(httptest.NewRecorder(), hr)
		})
		span(spanRoundTrip, root, func() {
			f := r.oracle.Fetch(s.client, s.base, req, &buf)
			out.responseBytes += int64(f.Bytes)
			if f.Outcome != check.OK {
				out.failed++
				r.problemf("replay: %q over HTTP: %s", req.Query, f.Outcome)
			}
		})

		stages := rec.Start("stages", root, rid)
		var q *query.Query
		attributed := span(spanParse, stages, func() {
			q, _ = query.Parse(req.Query)
			q.Projection = q.ProjectedVars()
		})
		var rewrites []relax.Rewrite
		attributed += span(spanExpand, stages, func() { rewrites, _ = g.expander.ExpandContext(ctx, q) })
		out.rewrites += len(rewrites)

		cold := topk.NewExecutor(g.st, topk.NewCache(g.cacheCap), g.topts)
		var cm, wm topk.Metrics
		span(spanCold, stages, func() { _, cm, _ = cold.Run(ctx, q, rewrites, topk.RunConfig{NoTrace: true}) })
		var answers []topk.Answer
		attributed += span(spanWarm, stages, func() { answers, wm, _ = cold.Run(ctx, q, rewrites, topk.RunConfig{NoTrace: true}) })
		out.cold.Add(cm)
		out.warm.Add(wm)

		// Cold list builds: the serial processor evaluates a prefix of the
		// rewrites, so those are the patterns a cold cache has to build.
		build := rec.Start("score.list_build", stages, rid)
		seen := map[string]bool{}
		var built time.Duration
		lists := 0
		for _, rw := range rewrites[:min(cm.RewritesEvaluated, len(rewrites))] {
			for _, p := range rw.Query.Patterns {
				if key := p.String(); !seen[key] {
					seen[key] = true
					built += span(spanMatch, build, func() {
						_, ms := g.matcher.MatchPatternCounted(p)
						out.indexScanned += ms.IndexScanned
					})
					lists++
				}
			}
		}
		rec.End(build)
		out.lists += lists
		paid := time.Duration(0)
		if lists > 0 {
			paid = time.Duration(misses) * built / time.Duration(lists)
		}
		out.listBuild = append(out.listBuild, paid)
		attributed += paid

		probe := rec.Start("store.probe", stages, rid)
		for _, p := range q.Patterns {
			ids, known := patternIDs(g.st.Dict(), p)
			if known {
				span(spanStoreM, probe, func() { g.st.Match(ids[0], ids[1], ids[2]) })
				span(spanStoreC, probe, func() { g.st.Count(ids[0], ids[1], ids[2]) })
			}
			for _, sl := range []query.Slot{p.S, p.P, p.O} {
				if !sl.IsVar() && sl.Term.Kind == rdf.KindToken && sl.Term.Text != "" {
					span(spanStoreT, probe, func() { g.st.MatchToken(sl.Term.Text, store.MaskAny, g.matcher.MinTokenSim, 0) })
				}
			}
		}
		rec.End(probe)

		ex := rec.Start("explain", stages, rid)
		var explained time.Duration
		for _, a := range answers {
			explained += span(spanExplain, ex, func() { explain.Explain(g.st, q, a) })
		}
		rec.End(ex)
		if !streamed {
			attributed += explained
		}
		attributed += span(spanSuggest, stages, func() { g.sug.Suggest(q) })
		span(spanEncode, stages, func() {
			json.NewEncoder(io.Discard).Encode(server.QueryResponse{
				Query: res.Query, Answers: res.Answers, Notices: res.Notices,
				Suggestions: res.Suggestions, Metrics: res.Metrics,
			})
		})
		rec.End(stages)
		rec.End(root)
		out.attributed = append(out.attributed, attributed)
		out.natural = append(out.natural, natural)
	}
	return out
}

// patternIDs resolves a pattern's exactly-bound slots to term IDs, with
// NoTerm as the wildcard for variables and token slots; known is false
// when a bound term is not in the dictionary (the pattern cannot match).
func patternIDs(dict *rdf.Dict, p query.Pattern) (ids [3]rdf.TermID, known bool) {
	for i, sl := range []query.Slot{p.S, p.P, p.O} {
		if sl.IsVar() || sl.Term.Kind == rdf.KindToken {
			continue
		}
		id, ok := dict.Lookup(sl.Term)
		if !ok {
			return ids, false
		}
		ids[i] = id
	}
	return ids, true
}

// untracedReplay fetches the first n sampled requests serially over HTTP,
// each twice so the timed fetch is warm like the traced round trip, and
// returns the timed fetches' total.
func (r *run) untracedReplay(s *serving, n int) time.Duration {
	var buf bytes.Buffer
	var total time.Duration
	for i := 0; i < n; i++ {
		req := r.spec.Requests[i%len(r.spec.Requests)]
		r.oracle.Fetch(s.client, s.base, req, &buf)
		begin := time.Now()
		r.oracle.Fetch(s.client, s.base, req, &buf)
		total += time.Since(begin)
	}
	return total
}

// ingestStaged is the ingest path measured stage by stage.
type ingestStaged struct {
	walAppend, buildDelta, ingestBatch, firstQuery []time.Duration
	walBytesPerFact                                float64
	deltaRows                                      int
	compact, checkpoint                            time.Duration
	open, openMapped                               []time.Duration
}

// ingestStages drives stageBatches batches of the seed through each layer
// of the ingest path on its own: the WAL, the delta builder, a durable
// engine (ingest, first query on the new version, checkpoint, reopen) and
// an in-memory engine (compaction).
func (r *run) ingestStages(rec *trace.Recorder) (ingestStaged, error) {
	var out ingestStaged
	batches := r.batches(stageBatches)
	dir := filepath.Join(r.cfg.workDir, "stages")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return out, err
	}
	timed := func(name string, rid int, f func() error) (d time.Duration, err error) {
		d = rec.Time(name, trace.NoParent, rid, func() { err = f() })
		return d, err
	}

	// serial.WAL.Append, 64 records and one fsync per call.
	walPath := filepath.Join(dir, "wal-probe.log")
	wal, _, err := serial.OpenWAL(walPath)
	if err != nil {
		return out, err
	}
	facts := 0
	for b, batch := range batches {
		recs := walRecords(batch)
		d, err := timed("serial.wal_append", b, func() error { return wal.Append(recs...) })
		if err != nil {
			wal.Close()
			return out, fmt.Errorf("stages: wal append: %w", err)
		}
		out.walAppend = append(out.walAppend, d)
		facts += len(recs)
	}
	if err := wal.Close(); err != nil {
		return out, err
	}
	if fi, err := os.Stat(walPath); err == nil {
		out.walBytesPerFact = float64(fi.Size()) / float64(facts)
	}

	// serial.OpenSnapshotMapped, then store.BuildDelta over its base.
	var mapped *serial.MappedSnapshot
	for i := 0; i < openCycles; i++ {
		if mapped != nil {
			mapped.Close()
		}
		d, err := timed("serial.open_mapped", i, func() (err error) {
			mapped, err = serial.OpenSnapshotMapped(r.corpus.snapshot)
			return err
		})
		if err != nil {
			return out, fmt.Errorf("stages: %w", err)
		}
		out.openMapped = append(out.openMapped, d)
	}
	defer mapped.Close()
	dict, prov := mapped.Store.Dict().Clone(), mapped.Store.Prov().Clone()
	var delta *store.Delta
	for b, batch := range batches {
		triples := internFacts(dict, prov, batch)
		d, err := timed("store.build_delta", b, func() (err error) {
			delta, _, err = store.BuildDelta(mapped.Store, dict, delta, triples)
			return err
		})
		if err != nil {
			return out, fmt.Errorf("stages: build delta: %w", err)
		}
		out.buildDelta = append(out.buildDelta, d)
	}
	out.deltaRows = delta.Rows()

	// A durable engine: IngestFacts, the first query on each new version,
	// Checkpoint, and Open of the result.
	dataDir := filepath.Join(dir, "data")
	e, err := trinit.LoadSnapshot(r.corpus.snapshot, nil)
	if err != nil {
		return out, err
	}
	if err := e.Persist(dataDir); err != nil {
		return out, err
	}
	probe := r.corpus.entities.PointQueries[0]
	for b, batch := range batches {
		d, err := timed("trinit.ingest_batch", b, func() error { _, err := e.IngestFacts(batch); return err })
		if err != nil {
			e.Close()
			return out, fmt.Errorf("stages: ingest: %w", err)
		}
		out.ingestBatch = append(out.ingestBatch, d)
		d, err = timed("trinit.first_query_after_publish", b, func() error {
			_, err := e.QueryContext(context.Background(), probe, trinit.WithoutTrace())
			return err
		})
		if err != nil {
			e.Close()
			return out, fmt.Errorf("stages: query after publish: %w", err)
		}
		out.firstQuery = append(out.firstQuery, d)
	}
	if out.checkpoint, err = timed("trinit.checkpoint", 0, e.Checkpoint); err != nil {
		e.Close()
		return out, fmt.Errorf("stages: checkpoint: %w", err)
	}
	for i := 0; i < openCycles; i++ {
		if err := e.Close(); err != nil {
			return out, err
		}
		d, err := timed("trinit.open", i, func() (err error) {
			e, _, err = trinit.Open(dataDir, nil)
			return err
		})
		if err != nil {
			return out, fmt.Errorf("stages: open: %w", err)
		}
		out.open = append(out.open, d)
	}
	if err := e.Close(); err != nil {
		return out, err
	}

	// An in-memory engine: Compact folds the delta without touching disk.
	mem, err := trinit.LoadSnapshot(r.corpus.snapshot, nil)
	if err != nil {
		return out, err
	}
	for _, batch := range batches {
		if _, err := mem.IngestFacts(batch); err != nil {
			return out, fmt.Errorf("stages: in-memory ingest: %w", err)
		}
	}
	if out.compact, err = timed("trinit.compact", 0, mem.Compact); err != nil {
		return out, fmt.Errorf("stages: compact: %w", err)
	}
	return out, nil
}

// walRecords and internFacts restate how Engine.IngestFacts turns facts
// into log records and interned triples (trinit.internFact is private):
// KG facts between resources at confidence 1, XKG facts with a token
// predicate and the subject and object as resources when known.
func walRecords(facts []trinit.Fact) []serial.WALRecord {
	recs := make([]serial.WALRecord, len(facts))
	for i, f := range facts {
		rec := serial.WALRecord{
			Op: serial.WALTriple, Epoch: 1,
			S: rdf.Resource(f.Subject), P: rdf.Resource(f.Predicate), O: rdf.Resource(f.Object),
			Source: rdf.SourceKG, Conf: 1,
		}
		if f.XKG {
			rec.P, rec.Source, rec.Conf = rdf.Token(f.Predicate), rdf.SourceXKG, f.Confidence
			rec.Doc, rec.Sentence = f.Doc, f.Sentence
		}
		recs[i] = rec
	}
	return recs
}

func internFacts(dict *rdf.Dict, prov *rdf.ProvTable, facts []trinit.Fact) []rdf.Triple {
	triples := make([]rdf.Triple, len(facts))
	for i, rec := range walRecords(facts) {
		t := rdf.Triple{
			S: dict.Intern(rec.S), P: dict.Intern(rec.P), O: dict.Intern(rec.O),
			Source: rec.Source, Conf: rec.Conf, Prov: rdf.NoProv,
		}
		if rec.Doc != "" {
			t.Prov = prov.Add(rdf.Prov{Doc: rec.Doc, Sentence: rec.Sentence})
		}
		triples[i] = t
	}
	return triples
}

// shardStages runs the sampled requests through a two-shard
// shard.Group, cold then warm, and returns the warm times and the share of
// rewrites the coordinator had to evaluate residually on the full store.
func (r *run) shardStages(g *stager, rec *trace.Recorder, budget time.Duration) ([]time.Duration, float64, error) {
	group, err := shard.NewGroup(g.st, 2, g.topts, shard.PartitionOptions{})
	if err != nil {
		return nil, 0, fmt.Errorf("stages: shard group: %w", err)
	}
	ctx := context.Background()
	var warm []time.Duration
	residual, rewritten := 0, 0
	begin := time.Now()
	for rid := 0; rid < min(maxShardQuery, len(r.spec.Requests)) && time.Since(begin) < budget; rid++ {
		req := r.spec.Requests[rid]
		q, err := query.Parse(req.Query)
		if err != nil {
			return nil, 0, err
		}
		q.Projection = q.ProjectedVars()
		rewrites, _ := g.expander.ExpandContext(ctx, q)
		cfg := topk.RunConfig{NoTrace: true}
		if _, err := group.Run(ctx, q, rewrites, cfg); err != nil {
			return nil, 0, fmt.Errorf("stages: sharded %q: %w", req.Query, err)
		}
		var res shard.RunResult
		d := rec.Time("shard.run_warm", trace.NoParent, rid, func() { res, err = group.Run(ctx, q, rewrites, cfg) })
		if err != nil {
			return nil, 0, fmt.Errorf("stages: sharded %q: %w", req.Query, err)
		}
		warm = append(warm, d)
		residual += res.Residual
		rewritten += len(rewrites)
	}
	return warm, float64(residual) / float64(max(rewritten, 1)), nil
}

// perRequest sums, per request, the self times of the spans with the
// given name. Spans are in start order and the replay is serial, so a
// request's spans are adjacent.
func perRequest(spans []trace.Span, self []int64, name string) []time.Duration {
	var out []time.Duration
	last := -1
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if s.Request != last {
			out, last = append(out, 0), s.Request
		}
		out[len(out)-1] += time.Duration(self[s.ID])
	}
	return out
}

// perSpan lists the self time of every span with the given name.
func perSpan(spans []trace.Span, self []int64, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, time.Duration(self[s.ID]))
		}
	}
	return out
}

func mean(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	return sum(d) / time.Duration(len(d))
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runTraced is a --trace 1 run: one set-up, the counter phase, the traced
// replay with its untraced twin, the ingest and shard stages, and every
// per-layer metric. The spans are written to traceDir at the end.
func runTraced(cfg config) (*result, error) {
	cfg.setups = 1
	r, _, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	s, err := serve(r.corpus.dataDir, r.spec.Options)
	if err != nil {
		return nil, err
	}
	offset := r.warmUp(s)
	c := r.counterPhase(s, offset, cfg.window/2)

	g, err := newStager(r.corpus.snapshot, r.spec.Options)
	if err != nil {
		return nil, err
	}
	defer g.mapped.Close()
	rec := trace.NewRecorder()
	rep := r.replay(s, g, rec, cfg.window/2)
	untraced := r.untracedReplay(s, rep.requests)
	if err := s.stopHTTP(); err != nil {
		return nil, err
	}
	if err := s.engine.Close(); err != nil {
		return nil, err
	}
	ing, err := r.ingestStages(rec)
	if err != nil {
		return nil, err
	}
	shardWarm, residual, err := r.shardStages(g, rec, cfg.window/4)
	if err != nil {
		return nil, err
	}

	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return nil, err
	}
	dump := filepath.Join(cfg.traceDir, "trace-"+cfg.workload+".json")
	if err := rec.WriteFile(dump); err != nil {
		return nil, err
	}
	spans := rec.Spans()
	self := trace.SelfTimes(spans)
	r.logf("traced replay: %d requests, %d spans written to %s; counter phase: %d queries", rep.requests, len(spans), dump, c.queries)
	if rep.requests == 0 || c.queries == 0 {
		return nil, fmt.Errorf("%s: traced run measured nothing: %v", cfg.workload, r.problems)
	}

	med := func(name string) float64 { return us(median(perRequest(spans, self, name))) }
	n := rep.requests
	traced := sum(perSpan(spans, self, spanRoundTrip))
	handler, queryWarm := perRequest(spans, self, spanHandler), perRequest(spans, self, spanQueryWarm)
	handlerSelf := make([]time.Duration, min(len(handler), len(queryWarm)))
	for i := range handlerSelf {
		handlerSelf[i] = handler[i] - queryWarm[i]
	}
	var lagP99 time.Duration
	if len(c.lag) > 0 {
		lagP99 = quantile(sorted(c.lag), 0.99)
	}

	m := map[string]metric{
		"query.parse_us":           val(med(spanParse), "us"),
		"relax.expand_us":          val(med(spanExpand), "us"),
		"relax.rewrites_per_query": val(ratio(rep.rewrites, n), "count"),

		"score.list_build_us":                 val(us(mean(rep.listBuild)), "us"),
		"score.cold_list_us":                  val(us(mean(perSpan(spans, self, spanMatch))), "us"),
		"score.index_scanned_per_list":        val(ratio(rep.indexScanned, rep.lists), "count"),
		"score.token_resolutions_per_query":   val(ratio(rep.cold.TokenResolutions, n), "count"),
		"score.scan_fallbacks":                val(float64(rep.cold.ScanFallbacks), "count"),
		"store.match_ns":                      val(float64(mean(perSpan(spans, self, spanStoreM))), "ns"),
		"store.count_ns":                      val(float64(mean(perSpan(spans, self, spanStoreC))), "ns"),
		"store.match_token_us":                val(us(mean(perSpan(spans, self, spanStoreT))), "us"),
		"topk.cache_hit_ratio":                val(ratio(c.hits, c.hits+c.misses), "ratio"),
		"topk.cache_evictions":                val(float64(c.evictions), "count"),
		"topk.run_warm_us":                    val(med(spanWarm), "us"),
		"topk.run_cold_us":                    val(med(spanCold), "us"),
		"topk.sorted_accesses_per_query":      val(ratio(rep.warm.SortedAccesses, n), "count"),
		"topk.join_branches_per_query":        val(ratio(rep.warm.JoinBranches, n), "count"),
		"topk.pruned_branch_ratio":            val(ratio(rep.warm.PrunedBranches, rep.warm.JoinBranches), "ratio"),
		"topk.hash_probes_per_query":          val(ratio(rep.warm.HashProbes, n), "count"),
		"topk.semijoin_dropped_per_query":     val(ratio(rep.cold.SemiJoinDropped, n), "count"),
		"topk.blocks_emitted_per_query":       val(ratio(rep.warm.BlocksEmitted, n), "count"),
		"topk.rewrites_skipped_ratio":         val(ratio(rep.warm.RewritesSkipped, rep.warm.RewritesTotal), "ratio"),
		"explain.explain_us":                  val(med(spanExplain), "us"),
		"suggest.suggest_us":                  val(med(spanSuggest), "us"),
		"suggest.build_ms":                    val(ms(g.sugBuild), "ms"),
		"server.handler_self_us":              val(us(median(handlerSelf)), "us"),
		"server.encode_us":                    val(med(spanEncode), "us"),
		"server.response_bytes":               val(float64(rep.responseBytes)/float64(n), "B"),
		"server.query_p99_ms":                 val(ms(quantile(sorted(c.latency), 0.99)), "ms"),
		"admission.wait_us":                   val(us(c.admissionWait), "us"),
		"admission.shed_total":                val(float64(c.shed), "count"),
		"trinit.query_us":                     val(med(spanQuery), "us"),
		"trinit.ingest_batch_us":              val(us(median(ing.ingestBatch)), "us"),
		"trinit.ingest_stall_ms":              val(ms(max(c.ingestMax, quantile(sorted(ing.ingestBatch), 1))), "ms"),
		"store.build_delta_us":                val(us(median(ing.buildDelta)), "us"),
		"store.delta_rows":                    val(float64(ing.deltaRows), "count"),
		"serial.wal_append_us":                val(us(median(ing.walAppend)), "us"),
		"serial.wal_bytes_per_fact":           val(ing.walBytesPerFact, "B"),
		"trinit.first_query_after_publish_ms": val(ms(median(ing.firstQuery)), "ms"),
		"trinit.pinned_versions_max":          val(float64(c.pinnedMax), "count"),
		"trinit.compact_ms":                   val(ms(ing.compact), "ms"),
		"trinit.checkpoint_ms":                val(ms(ing.checkpoint), "ms"),
		"trinit.open_ms":                      val(ms(median(ing.open)), "ms"),
		"serial.open_mapped_ms":               val(ms(median(ing.openMapped)), "ms"),
		"serial.snapshot_write_ms":            val(ms(r.corpus.stages["snapshot_write"]), "ms"),
		"serial.segment_bytes_per_triple":     val(float64(r.corpus.segBytes)/float64(r.corpus.triples), "B"),
		"shard.run_warm_us_n2":                val(us(median(shardWarm)), "us"),
		"shard.residual_rewrite_ratio":        val(residual, "ratio"),
		"go.alloc_bytes_per_query":            val(float64(c.allocBytes)/float64(c.queries), "B"),
		"go.allocs_per_query":                 val(float64(c.mallocs)/float64(c.queries), "count"),
		"go.gc_pause_ms":                      val(ms(c.gcPause), "ms"),
		"bench.sched_lag_p99_ms":              val(ms(lagP99), "ms"),
		"bench.trace_overhead_frac":           val(float64(traced-untraced)/float64(untraced), "ratio"),
		"bench.unattributed_frac":             val(trace.Unattributed(int64(sum(rep.natural)), int64(sum(rep.attributed))), "ratio"),
	}
	return &result{
		Correct:   len(r.problems) == 0,
		Attempted: c.queries + c.failed + n,
		Failed:    c.failed + rep.failed,
		Metrics:   m,
	}, nil
}
