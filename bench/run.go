package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"trinit"
	"trinit/bench/check"
	"trinit/bench/report"
	"trinit/bench/workload"
	"trinit/internal/dataset"
)

// config selects one run.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	// corpus is the synthetic world to build; setups is how often set-up is
	// repeated for setup_s.
	corpus dataset.Config
	setups int
	warmup time.Duration
	// workDir receives the corpus and data directories; traceDir the span
	// dumps of a traced run.
	workDir, traceDir string
	// log receives progress and sample counts (standard error in main).
	log io.Writer
}

// Fixed sizes of the phases after the window.
const (
	// recoverCycles is how many Close/Open cycles recover_ms is the median of.
	recoverCycles = 7
	// probeBatches is how many batches the read-only workloads ingest, back
	// to back, after their window.
	probeBatches = 128
	// verifyEvery samples the ingested batches whose facts are queried back.
	verifyEvery = 4
)

// result and metric are the run's output; see package report.
type (
	result = report.Result
	metric = report.Metric
)

// run is the state of one benchmark run.
type run struct {
	cfg    config
	corpus *corpus
	spec   workload.Spec
	oracle check.Oracle
	// problems collects every failed correctness check; any entry makes the
	// run incorrect.
	problems []string
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.cfg.log, format+"\n", args...)
}

func (r *run) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.logf("INCORRECT: "+format, args...)
}

// prepare runs set-up, generates the workload and answers its oracle
// queries. It returns the set-up times.
func prepare(cfg config) (*run, []time.Duration, error) {
	c, setups, err := setUp(cfg.corpus, cfg.workDir, cfg.setups)
	if err != nil {
		return nil, nil, err
	}
	spec, err := workload.Generate(cfg.workload, cfg.seed, c.entities)
	if err != nil {
		return nil, nil, err
	}
	r := &run{cfg: cfg, corpus: c, spec: spec}
	r.logf("set-up ×%d: median %.3fs; corpus %d triples, %d-byte segment", len(setups), median(setups).Seconds(), c.triples, c.segBytes)
	begin := time.Now()
	if r.oracle, err = buildOracle(c.snapshot, spec); err != nil {
		return nil, nil, err
	}
	r.logf("oracle: %d distinct queries answered exhaustively in %.2fs", len(r.oracle), time.Since(begin).Seconds())
	return r, setups, nil
}

// oracleOptions make a query the correctness baseline: every rewrite
// evaluated in full, on the single-store pipeline.
var oracleOptions = []trinit.QueryOption{
	trinit.WithMode(trinit.ModeExhaustive), trinit.WithoutSharding(),
	trinit.WithoutTrace(), trinit.WithoutExplanations(),
}

// buildOracle answers every oracle-marked query of the spec on a separate
// engine (heap-decoded, so dropping it frees everything) opened with the
// workload's own options — rewrite bounds change the answers.
func buildOracle(snapshot string, spec workload.Spec) (check.Oracle, error) {
	opts := spec.Options
	opts.NoMapSegments = true
	e, err := trinit.LoadSnapshot(snapshot, &opts)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	oracle := check.Oracle{}
	for _, req := range spec.Requests {
		if _, done := oracle[req.Query]; done || !req.Oracle {
			continue
		}
		res, err := e.QueryContext(context.Background(), req.Query, oracleOptions...)
		if err != nil {
			return nil, fmt.Errorf("oracle: %q: %w", req.Query, err)
		}
		oracle[req.Query] = rankingOf(res)
	}
	return oracle, nil
}

func rankingOf(res *trinit.Result) []check.Answer {
	out := make([]check.Answer, len(res.Answers))
	for i, a := range res.Answers {
		out[i] = check.Answer{Bindings: a.Bindings, Score: a.Score}
	}
	return out
}

// window is what the timed window observed.
type window struct {
	load    *load
	ingest  *ingest // nil without a writer during the window
	cpu     time.Duration
	peakRSS int64
}

// warmUp drives the sequence closed-loop with two clients, untimed, so
// caches fill and lazy structures (token index, suggester) are built. It
// returns how far into the sequence it got.
func (r *run) warmUp(s *serving) int {
	warm := closedLoop(s, r.oracle, r.spec.Requests, 0, 2, r.cfg.warmup)
	if n := warm.tally.Failed(); n > 0 {
		r.problemf("warm-up: %d of %d requests failed (%s)", n, warm.tally.Attempted(), warm.tally.FirstFailure)
	}
	return warm.tally.Attempted()
}

// measure runs the workload's load for d: closed-loop clients or
// the open-loop schedule, beside the open-loop writer if the spec has one.
func (r *run) measure(s *serving, offset int, d time.Duration) window {
	debug.FreeOSMemory()
	var w window
	rss := startRSSSampler()
	cpu := cpuTime()
	written := make(chan *ingest, 1)
	if r.spec.BatchRate > 0 {
		batches := r.batches(scheduled(r.spec.BatchRate, d))
		go func() { written <- writeBatches(s.engine, batches, r.spec.BatchRate) }()
	}
	if r.spec.Clients > 0 {
		w.load = closedLoop(s, r.oracle, r.spec.Requests, offset, r.spec.Clients, d)
	} else {
		w.load = openLoop(s, r.oracle, r.spec.Requests, offset, r.spec.Rate, d)
	}
	if r.spec.BatchRate > 0 {
		w.ingest = <-written
	}
	w.cpu = cpuTime() - cpu
	w.peakRSS = rss.peak()
	return w
}

// batches generates the first n ingest batches of the seed.
func (r *run) batches(n int) [][]trinit.Fact {
	out := make([][]trinit.Fact, n)
	for i := range out {
		out[i] = r.spec.Batch(i, r.corpus.entities.Universities)
	}
	return out
}

// recoverEngine closes e and measures recoverCycles restarts of its data
// directory: Open (mapped segment + WAL replay) until one point query is
// answered. It returns the last engine, still open.
func (r *run) recoverEngine(e *trinit.Engine) (*trinit.Engine, []time.Duration, error) {
	probe := r.corpus.entities.PointQueries[0]
	var times []time.Duration
	for i := 0; i < recoverCycles; i++ {
		if err := e.Close(); err != nil {
			return nil, nil, fmt.Errorf("close before recovery %d: %w", i, err)
		}
		// A restarted process starts with an empty heap: collect the
		// window's garbage now, or a collection lands inside some cycles.
		runtime.GC()
		begin := time.Now()
		var err error
		if e, _, err = trinit.Open(r.corpus.dataDir, &r.spec.Options); err != nil {
			return nil, nil, fmt.Errorf("recovery %d: %w", i, err)
		}
		if _, err := e.QueryContext(context.Background(), probe, trinit.WithoutTrace()); err != nil {
			e.Close()
			return nil, nil, fmt.Errorf("recovery %d: first query: %w", i, err)
		}
		times = append(times, time.Since(begin))
	}
	return e, times, nil
}

// verifyIngested checks that the engine holds every acknowledged fact: the
// triple count grew by exactly the acknowledged facts, and both facts of
// the first person of every verifyEvery-th batch come back from a query.
func (r *run) verifyIngested(e *trinit.Engine, in *ingest, where string) {
	if in.failed > 0 {
		r.problemf("%s: %d of %d ingest batches failed: %v", where, in.failed, in.batches, in.firstErr)
	}
	if got, want := e.Stats().Triples, r.corpus.triples+in.facts; got != want {
		r.problemf("%s: engine holds %d triples, want %d (corpus %d + %d acknowledged)", where, got, want, r.corpus.triples, in.facts)
	}
	for b := 0; b < in.batches; b += verifyEvery {
		first := r.spec.Batch(b, r.corpus.entities.Universities)[0]
		person, uni := first.Subject, first.Object
		for _, q := range []string{person + " affiliation ?u", person + " 'worked at' ?u"} {
			res, err := e.QueryContext(context.Background(), q, trinit.WithoutTrace(), trinit.WithoutExplanations())
			if err != nil {
				r.problemf("%s: %q: %v", where, q, err)
				continue
			}
			found := false
			for _, a := range res.Answers {
				found = found || a.Bindings["u"] == uni
			}
			if !found {
				r.problemf("%s: %q does not return acknowledged fact (%s)", where, q, uni)
			}
		}
	}
}

// verifyFinalState checks the point queries on the engine's final state:
// the default pipeline must rank exactly as the exhaustive one.
func (r *run) verifyFinalState(e *trinit.Engine) {
	for _, q := range r.corpus.entities.PointQueries {
		got, err := e.QueryContext(context.Background(), q, trinit.WithoutTrace(), trinit.WithoutExplanations())
		if err != nil {
			r.problemf("final state: %q: %v", q, err)
			continue
		}
		want, err := e.QueryContext(context.Background(), q, oracleOptions...)
		if err != nil {
			r.problemf("final state oracle: %q: %v", q, err)
			continue
		}
		if !check.Equal(rankingOf(got), rankingOf(want)) {
			r.problemf("final state: %q differs from the exhaustive oracle", q)
		}
	}
}

// runTimed is a --trace 0 run: set-up, warm-up, the timed window with
// tracing off, then the restart and ingest phases every workload shares,
// and every end-to-end metric.
func runTimed(cfg config) (*result, error) {
	r, setups, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	s, err := serve(r.corpus.dataDir, r.spec.Options)
	if err != nil {
		return nil, err
	}
	offset := r.warmUp(s)
	w := r.measure(s, offset, cfg.window)
	if err := s.stopHTTP(); err != nil {
		s.engine.Close()
		return nil, err
	}

	// The writer's facts must be readable before and after a restart; a
	// read-only workload restarts clean and then ingests its probe.
	e, in := s.engine, w.ingest
	if in != nil {
		r.verifyIngested(e, in, "live engine")
	}
	e, recovered, err := r.recoverEngine(e)
	if err != nil {
		return nil, err
	}
	if in != nil {
		r.verifyIngested(e, in, "after restart")
		r.verifyFinalState(e)
	} else {
		in = writeBatches(e, r.batches(probeBatches), 0)
		r.verifyIngested(e, in, "ingest probe")
	}
	if err := e.Close(); err != nil {
		r.problemf("close: %v", err)
	}

	l := w.load
	if n := l.tally.Failed(); n > 0 {
		r.problemf("window: %d of %d requests failed (%s)", n, l.tally.Attempted(), l.tally.FirstFailure)
	}
	lat, first, ing := sorted(l.latency), sorted(l.first), sorted(in.latency)
	r.logf("window %.2fs: %d requests sent, %d succeeded; %d latency, %d first-answer, %d ingest samples",
		l.elapsed.Seconds(), l.tally.Attempted(), l.tally.Succeeded(), len(lat), len(first), len(ing))
	if !supported(len(lat), 0.95) {
		r.logf("note: query_p95_ms has fewer than ten samples beyond it")
	}
	if len(l.lag) > 0 {
		r.logf("open loop: generator lateness p99 %.3fms", ms(quantile(sorted(l.lag), 0.99)))
	}
	if len(lat) == 0 || len(first) == 0 || len(ing) == 0 {
		return nil, fmt.Errorf("%s: no successful samples (%d query, %d first-answer, %d ingest): %v", cfg.workload, len(lat), len(first), len(ing), r.problems)
	}

	res := &result{
		Correct:   len(r.problems) == 0,
		Attempted: l.tally.Attempted() + in.batches,
		Failed:    l.tally.Failed() + in.failed,
		Metrics: map[string]metric{
			"setup_s":             val(median(setups).Seconds(), "s"),
			"query_p50_ms":        val(ms(quantile(lat, 0.50)), "ms"),
			"query_p95_ms":        val(ms(quantile(lat, 0.95)), "ms"),
			"query_qps":           val(float64(l.tally.Succeeded())/l.elapsed.Seconds(), "1/s"),
			"first_answer_p50_ms": val(ms(quantile(first, 0.50)), "ms"),
			"ingest_p50_ms":       val(ms(quantile(ing, 0.50)), "ms"),
			"ingest_facts_per_s":  val(float64(in.facts)/in.elapsed.Seconds(), "1/s"),
			"recover_ms":          val(ms(median(recovered)), "ms"),
			"cpu_ms_per_query":    val(ms(w.cpu)/float64(l.tally.Succeeded()), "ms"),
			"peak_rss_mb":         val(float64(w.peakRSS)/(1<<20), "MB"),
		},
	}
	return res, nil
}
