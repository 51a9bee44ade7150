package trinit

// Benchmarks regenerating the paper's evaluation artefacts, one per
// experiment of DESIGN.md §4 (E1–E6), plus micro-benchmarks for the main
// substrates. Run with:
//
//	go test -bench=. -benchmem
//
// The E-benchmarks report the same quantities as cmd/trinit-bench, but
// under the testing.B harness so regressions show up in CI.

import (
	"context"
	"maps"
	"slices"
	"sync"
	"testing"

	"trinit/internal/dataset"
	"trinit/internal/experiments"
	"trinit/internal/ned"
	"trinit/internal/openie"
	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/relax"
	"trinit/internal/score"
	"trinit/internal/store"
	"trinit/internal/suggest"
	"trinit/internal/topk"
	"trinit/internal/xkg"
)

var (
	benchWorldOnce sync.Once
	benchWorld     *dataset.World
	benchInstOnce  sync.Once
	benchInst      *experiments.Instance
)

func world() *dataset.World {
	benchWorldOnce.Do(func() {
		cfg := dataset.DefaultConfig()
		cfg.People = 300
		benchWorld = dataset.Generate(cfg)
	})
	return benchWorld
}

func fullInstance() *experiments.Instance {
	benchInstOnce.Do(func() {
		benchInst = experiments.Build(world(), experiments.System{Name: "full", UseXKG: true, UseRelax: true})
	})
	return benchInst
}

// BenchmarkE1QueryProcessing reproduces the §4 effectiveness comparison:
// the full 70-query workload on the full system (NDCG is validated in
// internal/experiments tests; here the cost of producing it is measured).
func BenchmarkE1QueryProcessing(b *testing.B) {
	inst := fullInstance()
	workload := world().Workload(70)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wq := workload[i%len(workload)]
		if _, _, err := inst.RunQuery(wq.Text, wq.Var, 10, topk.Incremental); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2RuleMining measures mining the relaxation rules with the §3
// weight formula over the full XKG.
func BenchmarkE2RuleMining(b *testing.B) {
	inst := fullInstance()
	opts := relax.MiningOptions{MinSupport: 2, MinWeight: 0.1, IncludeInverse: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rules := relax.Mine(inst.Store, opts)
		if len(rules) == 0 {
			b.Fatal("no rules mined")
		}
	}
}

// BenchmarkE3DemoScenario replays the users A-D scenario (Figures 1-4).
func BenchmarkE3DemoScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunE3()
		if len(rows) != 4 {
			b.Fatal("demo scenario broken")
		}
	}
}

// BenchmarkE4XKGConstruction measures the full §5 pipeline: Open IE over
// the corpus, entity linking, and store construction.
func BenchmarkE4XKGConstruction(b *testing.B) {
	w := world()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.RunE4(w)
		if r.Stats.XKGTriples == 0 {
			b.Fatal("no XKG triples")
		}
	}
}

// BenchmarkXKGBuild measures the two halves of the benchmark set-up's
// xkg_build stage on dataset.BenchConfig at scale 1 (≈45k triples):
// "build" loads the KG, builds the linker and runs xkg.Build over the
// corpus; "freeze" freezes the finished store (permutation indexes,
// token index, per-term token sets, predicate statistics).
func BenchmarkXKGBuild(b *testing.B) {
	w := dataset.Generate(dataset.BenchConfig())
	build := func() *store.Store {
		st := store.New(nil, nil)
		w.PopulateKG(st)
		xkg.Build(st, ned.NewLinker(st), w.Docs(), xkg.DefaultOptions())
		return st
	}
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			build()
		}
	})
	b.Run("freeze", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st := build()
			b.StartTimer()
			st.Freeze()
		}
	})
}

// BenchmarkE5TopKIncremental and ...Exhaustive measure the §4 efficiency
// claim: the incremental algorithm touches fewer posting-list entries and
// evaluates fewer rewrites than exhaustively materialising the rewrite
// space. Compare ns/op between the two.
func BenchmarkE5TopKIncremental(b *testing.B) { benchE5(b, topk.Incremental) }

// BenchmarkE5TopKExhaustive is the baseline counterpart.
func BenchmarkE5TopKExhaustive(b *testing.B) { benchE5(b, topk.Exhaustive) }

func benchE5(b *testing.B, mode topk.Mode) {
	inst := fullInstance()
	workload := world().Workload(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wq := workload[i%len(workload)]
		if _, _, err := inst.RunQuery(wq.Text, wq.Var, 10, mode); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6Suggest measures the §5 suggestion features over the world.
func BenchmarkE6Suggest(b *testing.B) {
	w := world()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.RunE6(w)
		if r.TokenQueries == 0 {
			b.Fatal("no suggestions computed")
		}
	}
}

// --- micro-benchmarks -------------------------------------------------

// BenchmarkSuggest measures token → resource suggestions over
// token-phrase queries shaped like the token-explore workload's (token
// predicates bound to every university and city, plus the unbound
// patterns) and a subject token per person, one op per pass: cold
// computes every token from the store (a fresh suggester per pass, as
// after a publish), warm reads the per-version memo.
func BenchmarkSuggest(b *testing.B) {
	inst := fullInstance()
	texts := []string{"?x 'worked at' ?u", "?x 'was born in' ?c", "?x 'lectured at' ?u"}
	for _, u := range world().Universities() {
		texts = append(texts, "?x 'worked at' "+u)
	}
	for _, c := range world().Cities() {
		texts = append(texts, "?x 'worked at' ?u . ?u locatedIn "+c)
	}
	for _, p := range world().People()[:20] {
		texts = append(texts, "'"+p+"' 'won prize for' ?f")
	}
	qs := make([]*query.Query, len(texts))
	for i, text := range texts {
		qs[i] = query.MustParse(text)
	}
	pass := func(s *suggest.Suggester) {
		for _, q := range qs {
			s.Suggest(q)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pass(suggest.New(inst.Store))
		}
	})
	b.Run("warm", func(b *testing.B) {
		s := suggest.New(inst.Store)
		pass(s)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass(s)
		}
	})
}

// BenchmarkStoreMatch measures a bound-predicate index scan.
func BenchmarkStoreMatch(b *testing.B) {
	inst := fullInstance()
	p, ok := inst.Store.Dict().Lookup(rdf.Resource("affiliation"))
	if !ok {
		b.Fatal("predicate missing")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(inst.Store.Match(rdf.NoTerm, p, rdf.NoTerm)) == 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkTokenMatch measures resolving a textual token to candidates.
func BenchmarkTokenMatch(b *testing.B) {
	inst := fullInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Store.MatchToken("worked at", 1<<rdf.KindToken, 0.3, 10)
	}
}

// BenchmarkQueryParse measures the extended triple-pattern parser.
func BenchmarkQueryParse(b *testing.B) {
	const q = "SELECT ?x WHERE { AlbertEinstein affiliation ?x . ?x 'housed in' ?y . ?y member IvyLeague } LIMIT 5"
	for i := 0; i < b.N; i++ {
		if _, err := query.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenIEExtraction measures the ReVerb-style extractor.
func BenchmarkOpenIEExtraction(b *testing.B) {
	const doc = "Einstein won a Nobel for his discovery of the photoelectric effect. " +
		"The IAS was housed in Princeton. Einstein lectured at Princeton University. " +
		"Alden Ackermann worked at Northford University and studied under Berta Brenner."
	for i := 0; i < b.N; i++ {
		if len(openie.ExtractDocument(doc)) == 0 {
			b.Fatal("no extractions")
		}
	}
}

// BenchmarkRewriteExpansion measures rewrite-space expansion: one
// two-pattern query at the default depth 2 / 64 rewrites, and the
// wide-join workload's query shapes (city and league joins and the
// three-pattern join, over every city and league) at depth 3 / 256, with
// ns/op and allocs/op per workload pass.
func BenchmarkRewriteExpansion(b *testing.B) {
	inst := fullInstance()
	run := func(b *testing.B, exp *relax.Expander, texts ...string) {
		qs := make([]*query.Query, len(texts))
		for i, text := range texts {
			qs[i] = query.MustParse(text)
			qs[i].Projection = qs[i].ProjectedVars()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				if len(exp.Expand(q)) == 0 {
					b.Fatal("no rewrites")
				}
			}
		}
	}
	b.Run("depth2", func(b *testing.B) {
		run(b, relax.NewExpander(inst.Rules), "?x affiliation ?u . ?u locatedIn Northford")
	})
	b.Run("wide-join-depth3", func(b *testing.B) {
		exp := relax.NewExpander(inst.Rules)
		exp.MaxDepth, exp.MaxRewrites = 3, 256
		var texts []string
		for _, c := range world().Cities() {
			texts = append(texts,
				"SELECT ?x WHERE { ?x affiliation ?u . ?u locatedIn "+c+" }",
				"?x ?p ?y . ?y locatedIn "+c+" . ?x affiliation ?u")
		}
		for _, l := range slices.Compact(slices.Sorted(maps.Values(world().Truth.UniLeague))) {
			texts = append(texts, "SELECT ?x WHERE { ?x affiliation ?u . ?u member "+l+" }")
		}
		run(b, exp, texts...)
	})
}

// BenchmarkEngineQuery measures a full public-API query round trip on the
// demo engine, including explanation construction.
func BenchmarkEngineQuery(b *testing.B) {
	e := NewDemoEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Query("SELECT ?x WHERE { AlbertEinstein affiliation ?x . ?x member IvyLeague }")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Answers) == 0 {
			b.Fatal("no answers")
		}
	}
}

// BenchmarkE7RuleSourceAblation measures the cumulative rule-source
// ablation (DESIGN.md E7).
func BenchmarkE7RuleSourceAblation(b *testing.B) {
	w := world()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.RunE7(w, 10)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkE8ScoringAblation measures the scoring-model ablation
// (DESIGN.md E8).
func BenchmarkE8ScoringAblation(b *testing.B) {
	w := world()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.RunE8(w, 10)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkEngineQueryParallel exercises the lock-free read path: one
// frozen engine, queries from all procs in parallel against the shared
// match-list cache. Compare ops/s with BenchmarkEngineQuerySerialized
// (the seed's behaviour, emulated with an external mutex) to see the QPS
// scaling the concurrent pipeline buys.
func BenchmarkEngineQueryParallel(b *testing.B) {
	e := NewDemoEngine()
	warmEngine(b, e)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if err := runDemoQuery(e, i); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkEngineQuerySerialized is the pre-refactor baseline: identical
// traffic, but every query serialised behind one mutex, as the seed's
// engine-wide lock did.
func BenchmarkEngineQuerySerialized(b *testing.B) {
	e := NewDemoEngine()
	warmEngine(b, e)
	var mu sync.Mutex
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			mu.Lock()
			err := runDemoQuery(e, i)
			mu.Unlock()
			if err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

var demoBenchQueries = []string{
	"SELECT ?x WHERE { AlbertEinstein affiliation ?x . ?x member IvyLeague }",
	"AlbertEinstein hasAdvisor ?x",
	"?x bornIn Germany",
	"?x bornIn ?y . ?y locatedIn ?z",
}

func runDemoQuery(e *Engine, i int) error {
	_, err := e.Query(demoBenchQueries[i%len(demoBenchQueries)])
	return err
}

func warmEngine(b *testing.B, e *Engine) {
	b.Helper()
	for i := range demoBenchQueries {
		if err := runDemoQuery(e, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinKernel measures the join kernel (planner, hash probes,
// semi-join reduction, block execution) on the worst-case three-pattern
// query: an unbound-predicate pattern joined through two shared
// variables.
func BenchmarkJoinKernel(b *testing.B) {
	inst := fullInstance()
	q := query.MustParse("SELECT ?x WHERE { ?x ?p ?y . ?y locatedIn Northford . ?x affiliation ?u }")
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(inst.Rules).Expand(q)
	ev := topk.New(inst.Store, topk.Options{K: 10})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, _ := ev.Evaluate(q, rewrites)
		if len(ans) == 0 {
			b.Fatal("no answers")
		}
	}
}

// BenchmarkRewriteSpace measures a wide-rewrite workload query: a
// depth-3 expansion (up to 256 rewrites) of the three-pattern join,
// evaluated against a warmed cache. Run with -benchmem to see the
// per-rewrite allocation savings of the executor's scratch buffers.
func BenchmarkRewriteSpace(b *testing.B) {
	inst := fullInstance()
	q := query.MustParse("SELECT ?x WHERE { ?x ?p ?y . ?y locatedIn Northford . ?x affiliation ?u }")
	q.Projection = q.ProjectedVars()
	exp := relax.NewExpander(inst.Rules)
	exp.MaxDepth = 3
	exp.MaxRewrites = 256
	rewrites := exp.Expand(q)
	ev := topk.New(inst.Store, topk.Options{K: 10})
	// Warm the match-list cache so the loop measures rewrite and join
	// work, not one-off list builds.
	if ans, _ := ev.Evaluate(q, rewrites); len(ans) == 0 {
		b.Fatal("no answers")
	}
	cfg := topk.RunConfig{NoTrace: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, _, err := ev.Run(context.Background(), q, rewrites, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(ans) == 0 {
			b.Fatal("no answers")
		}
	}
}

// BenchmarkMatcherTokenResolved measures match-list building for an
// unbounded token-predicate pattern, where the resolved matcher touches
// only the candidate ranges surfaced by the inverted token index instead
// of walking the whole store.
func BenchmarkMatcherTokenResolved(b *testing.B) {
	inst := fullInstance()
	m := score.NewMatcher(inst.Store)
	p := query.MustParse("?x 'worked at' ?u").Patterns[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(m.MatchPattern(p)) == 0 {
			b.Fatal("no matches")
		}
	}
}
