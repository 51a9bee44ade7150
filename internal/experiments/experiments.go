// Package experiments implements the reproduction experiments E1–E6 —
// one per evaluation artefact of the paper — plus the ablation studies E7
// (rule sources) and E8 (scoring effects).
// The same runners back both cmd/trinit-bench (human-readable tables) and
// the root-level testing.B benchmarks.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"trinit/internal/dataset"
	"trinit/internal/eval"
	"trinit/internal/ned"
	"trinit/internal/query"
	"trinit/internal/relax"
	"trinit/internal/store"
	"trinit/internal/suggest"
	"trinit/internal/topk"
	"trinit/internal/xkg"
)

// System is one configuration of the E1 comparison.
type System struct {
	Name     string
	UseXKG   bool
	UseRelax bool
}

// Systems returns the four E1 configurations, strongest first.
func Systems() []System {
	return []System{
		{Name: "TriniT (XKG + relaxation)", UseXKG: true, UseRelax: true},
		{Name: "TriniT w/o XKG (KG + relaxation)", UseXKG: false, UseRelax: true},
		{Name: "TriniT w/o relaxation (XKG only)", UseXKG: true, UseRelax: false},
		{Name: "KG-only exact match (baseline)", UseXKG: false, UseRelax: false},
	}
}

// Instance is a built system: store plus rule set, with one persistent
// evaluator per processing mode (their pattern-list caches model
// the precomputed index lists of the original backend).
type Instance struct {
	Store      *store.Store
	Rules      []*relax.Rule
	evaluators map[topk.Mode]*topk.Evaluator
}

// Build constructs an instance of a system over a generated world.
func Build(w *dataset.World, sys System) *Instance {
	st := store.New(nil, nil)
	w.PopulateKG(st)
	if sys.UseXKG {
		linker := ned.NewLinker(st)
		xkg.Build(st, linker, w.Docs(), xkg.DefaultOptions())
	}
	st.Freeze()
	inst := &Instance{Store: st}
	if sys.UseRelax {
		inst.Rules = append(inst.Rules,
			relax.MustParseRule("advisor-inv", "?x hasAdvisor ?y => ?y hasStudent ?x", 1.0, "manual"))
		mopts := relax.MiningOptions{MinSupport: 2, MinWeight: 0.1, IncludeInverse: true}
		inst.Rules = append(inst.Rules, relax.Mine(st, mopts)...)
		inst.Rules = append(inst.Rules,
			relax.MineCompositions(st, []string{"locatedIn", "partOf", "memberOf"}, mopts)...)
	}
	return inst
}

// RunQuery evaluates one workload query on an instance and returns the
// ranked answer texts of the projected variable. Evaluators (and their
// warmed match-list caches) are kept per mode, so a k sweep reuses one
// warmed cache per mode — the caches model the precomputed index lists
// of the original backend.
func (inst *Instance) RunQuery(text, projVar string, k int, mode topk.Mode) ([]string, topk.Metrics, error) {
	q, err := query.Parse(text)
	if err != nil {
		return nil, topk.Metrics{}, err
	}
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(inst.Rules).Expand(q)
	if inst.evaluators == nil {
		inst.evaluators = make(map[topk.Mode]*topk.Evaluator)
	}
	ev, ok := inst.evaluators[mode]
	if !ok {
		ev = topk.New(inst.Store, topk.Options{Mode: mode})
		inst.evaluators[mode] = ev
	}
	answers, m, _ := ev.Run(context.Background(), q, rewrites, topk.RunConfig{K: k})
	ranked := make([]string, 0, len(answers))
	for _, a := range answers {
		ranked = append(ranked, inst.Store.Dict().Term(a.Bindings[projVar]).Text)
	}
	return ranked, m, nil
}

// ---------------------------------------------------------------------------
// E1 — §4 headline: NDCG@5 over 70 entity-relationship queries.
// ---------------------------------------------------------------------------

// E1Row is one system's effectiveness over the workload.
type E1Row struct {
	System string
	eval.Report
	PerCategory map[string]float64 // NDCG@5 per query category
}

// RunE1 builds every system over the world and evaluates the workload.
func RunE1(w *dataset.World, numQueries, k int) []E1Row {
	workload := w.Workload(numQueries)
	var rows []E1Row
	for _, sys := range Systems() {
		inst := Build(w, sys)
		var results []eval.QueryResult
		perCat := make(map[string][]float64)
		for _, wq := range workload {
			ranked, _, err := inst.RunQuery(wq.Text, wq.Var, k, topk.Incremental)
			if err != nil {
				continue
			}
			results = append(results, eval.QueryResult{ID: wq.ID, Ranked: ranked, Judged: wq.Judgments})
			perCat[wq.Category] = append(perCat[wq.Category], eval.NDCG(ranked, wq.Judgments, 5))
		}
		row := E1Row{System: sys.Name, Report: eval.Evaluate(results), PerCategory: make(map[string]float64)}
		for cat, vals := range perCat {
			row.PerCategory[cat] = eval.Mean(vals)
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatE1 renders the E1 table.
func FormatE1(rows []E1Row) string {
	var b strings.Builder
	b.WriteString("E1: answer quality over the entity-relationship workload (paper §4: TriniT NDCG@5 = 0.775 vs next best 0.419)\n")
	fmt.Fprintf(&b, "%-36s %8s %8s %8s %8s %8s\n", "system", "NDCG@5", "NDCG@10", "P@5", "MAP", "MRR")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-36s %8.3f %8.3f %8.3f %8.3f %8.3f\n",
			r.System, r.NDCG5, r.NDCG10, r.P5, r.MAP, r.MRR)
	}
	b.WriteString("\nNDCG@5 per query category:\n")
	cats := []string{"born", "advisor", "affiliation", "prize", "cityjoin", "leaguejoin"}
	fmt.Fprintf(&b, "%-36s", "system")
	for _, c := range cats {
		fmt.Fprintf(&b, " %10s", c)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-36s", r.System)
		for _, c := range cats {
			fmt.Fprintf(&b, " %10.3f", r.PerCategory[c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E2 — Figure 4: relaxation rules mined from the XKG with §3's weights.
// ---------------------------------------------------------------------------

// E2Result holds the mined rule inventory.
type E2Result struct {
	Alignment    []*relax.Rule
	Inversion    []*relax.Rule
	Composition  []*relax.Rule
	TotalMined   int
	KGToXKG      int // rules bridging a KG predicate to a token predicate
	SupportSweep []E2SweepRow
}

// E2SweepRow reports rule counts for one min-support setting.
type E2SweepRow struct {
	MinSupport int
	Rules      int
}

// RunE2 mines rules from the full XKG instance.
func RunE2(w *dataset.World) E2Result {
	inst := Build(w, System{Name: "full", UseXKG: true, UseRelax: false})
	mopts := relax.MiningOptions{MinSupport: 2, MinWeight: 0.1, IncludeInverse: true}
	mined := relax.Mine(inst.Store, mopts)
	comp := relax.MineCompositions(inst.Store, []string{"locatedIn", "partOf", "memberOf"}, mopts)

	res := E2Result{Composition: comp, TotalMined: len(mined) + len(comp)}
	for _, r := range mined {
		if r.Origin == "inversion" {
			res.Inversion = append(res.Inversion, r)
		} else {
			res.Alignment = append(res.Alignment, r)
		}
		if bridgesKGToXKG(r) {
			res.KGToXKG++
		}
	}
	for _, ms := range []int{1, 2, 3, 5, 10} {
		n := len(relax.Mine(inst.Store, relax.MiningOptions{MinSupport: ms, MinWeight: 0.1, IncludeInverse: true}))
		res.SupportSweep = append(res.SupportSweep, E2SweepRow{MinSupport: ms, Rules: n})
	}
	return res
}

// bridgesKGToXKG reports whether a single-pattern rule rewrites between a
// resource predicate and a token predicate (Figure 4 rules 3/4 shape).
func bridgesKGToXKG(r *relax.Rule) bool {
	if len(r.LHS) != 1 || len(r.RHS) != 1 {
		return false
	}
	l, rr := r.LHS[0].P, r.RHS[0].P
	if l.IsVar() || rr.IsVar() {
		return false
	}
	return l.Term.Kind != rr.Term.Kind
}

// FormatE2 renders the E2 tables.
func FormatE2(res E2Result, topN int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E2: relaxation rules mined with w(p1->p2) = |args(p1) ∩ args(p2)| / |args(p2)| (Figure 4 analogues)\n")
	fmt.Fprintf(&b, "total mined: %d (alignment %d, inversion %d, composition %d); KG<->XKG bridges: %d\n\n",
		res.TotalMined, len(res.Alignment), len(res.Inversion), len(res.Composition), res.KGToXKG)
	section := func(name string, rules []*relax.Rule) {
		fmt.Fprintf(&b, "top %s rules:\n", name)
		for i, r := range rules {
			if i >= topN {
				break
			}
			fmt.Fprintf(&b, "  %s\n", r)
		}
		b.WriteByte('\n')
	}
	section("alignment", res.Alignment)
	section("inversion", res.Inversion)
	section("composition", res.Composition)
	b.WriteString("min-support sweep (alignment+inversion rules):\n")
	for _, row := range res.SupportSweep {
		fmt.Fprintf(&b, "  minSupport=%2d  rules=%d\n", row.MinSupport, row.Rules)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E3 — Figures 1–3 and §1: the users A–D demo scenario.
// ---------------------------------------------------------------------------

// E3Row is one user's query before and after relaxation.
type E3Row struct {
	User           string
	Need           string
	Query          string
	AnswersBefore  int
	AnswersAfter   int
	TopAnswer      string
	TopScore       float64
	ExpectedAnswer string
	Correct        bool
	RulesInvoked   []string
}

// RunE3 replays the Figure 2 queries against the Figure 1+3 XKG.
func RunE3() []E3Row {
	d := dataset.NewDemo()
	var rows []E3Row
	for _, dq := range d.Queries {
		q := query.MustParse(dq.Query)
		q.Projection = q.ProjectedVars()

		plain, _ := topk.New(d.Store, topk.Options{K: 5}).Evaluate(q, relax.NewExpander(nil).Expand(q))
		full, _ := topk.New(d.Store, topk.Options{K: 5}).Evaluate(q, relax.NewExpander(d.Rules).Expand(q))

		row := E3Row{
			User:           dq.User,
			Need:           dq.Need,
			Query:          dq.Query,
			AnswersBefore:  len(plain),
			AnswersAfter:   len(full),
			ExpectedAnswer: dq.Want,
		}
		if len(full) > 0 {
			top := full[0]
			for _, v := range q.ProjectedVars() {
				row.TopAnswer = d.Store.Dict().Term(top.Bindings[v]).Text
			}
			row.TopScore = top.Score
			for _, r := range top.Derivation.Rewrite.Applied {
				row.RulesInvoked = append(row.RulesInvoked, r.ID)
			}
			row.Correct = row.TopAnswer == dq.Want
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatE3 renders the E3 table.
func FormatE3(rows []E3Row) string {
	var b strings.Builder
	b.WriteString("E3: the paper's users A-D (Figure 2) on the Figure 1 KG + Figure 3 XKG\n")
	fmt.Fprintf(&b, "%-4s %-55s %7s %7s %-40s %7s %s\n", "user", "query", "before", "after", "top answer", "score", "rules")
	for _, r := range rows {
		status := "OK"
		if !r.Correct {
			status = "WRONG (want " + r.ExpectedAnswer + ")"
		}
		fmt.Fprintf(&b, "%-4s %-55s %7d %7d %-40s %7.3f %v  [%s]\n",
			r.User, r.Query, r.AnswersBefore, r.AnswersAfter, r.TopAnswer, r.TopScore, r.RulesInvoked, status)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E4 — §5 scale statistics: KG vs XKG triple counts and extraction yield.
// ---------------------------------------------------------------------------

// E4Result reports the constructed XKG's statistics.
type E4Result struct {
	Stats       store.Stats
	Pipeline    xkg.Stats
	Ratio       float64 // XKG-to-KG triple ratio (paper: 390M/50M ≈ 7.8)
	TopRelCount int
}

// RunE4 builds the XKG and reports statistics.
func RunE4(w *dataset.World) E4Result {
	st := store.New(nil, nil)
	w.PopulateKG(st)
	linker := ned.NewLinker(st)
	ps := xkg.Build(st, linker, w.Docs(), xkg.DefaultOptions())
	st.Freeze()
	s := st.Stats()
	ratio := 0.0
	if s.KGTriples > 0 {
		ratio = float64(s.XKGTriples) / float64(s.KGTriples)
	}
	return E4Result{Stats: s, Pipeline: ps, Ratio: ratio}
}

// FormatE4 renders the E4 table.
func FormatE4(r E4Result) string {
	var b strings.Builder
	b.WriteString("E4: XKG construction statistics (paper §5: 440M distinct triples = 50M KG + 390M Open IE; ratio 7.8)\n")
	fmt.Fprintf(&b, "  documents            %d\n", r.Pipeline.Documents)
	fmt.Fprintf(&b, "  sentences            %d\n", r.Pipeline.Sentences)
	fmt.Fprintf(&b, "  raw extractions      %d\n", r.Pipeline.Extractions)
	fmt.Fprintf(&b, "  kept after filters   %d\n", r.Pipeline.Kept)
	fmt.Fprintf(&b, "  linked subjects      %d\n", r.Pipeline.LinkedSubj)
	fmt.Fprintf(&b, "  linked objects       %d\n", r.Pipeline.LinkedObj)
	fmt.Fprintf(&b, "  KG triples           %d\n", r.Stats.KGTriples)
	fmt.Fprintf(&b, "  XKG token triples    %d\n", r.Stats.XKGTriples)
	fmt.Fprintf(&b, "  distinct triples     %d\n", r.Stats.Triples)
	fmt.Fprintf(&b, "  XKG/KG ratio         %.2f (paper: 7.8)\n", r.Ratio)
	fmt.Fprintf(&b, "  predicates           %d (%d canonical, %d token phrases)\n", r.Stats.Predicates, r.Stats.ResourcePreds, r.Stats.TokenPreds)
	fmt.Fprintf(&b, "  provenance records   %d\n", r.Stats.ProvenanceRecs)
	return b.String()
}

// ---------------------------------------------------------------------------
// E5 — §4 efficiency: incremental top-k vs exhaustive rewriting.
// ---------------------------------------------------------------------------

// E5Row is one (k, mode) measurement averaged over the workload.
type E5Row struct {
	K                  int     `json:"k"`
	Mode               string  `json:"mode"`
	MeanMillis         float64 `json:"mean_millis"`
	MeanAccesses       float64 `json:"mean_sorted_accesses"` // sorted accesses into per-pattern lists
	MeanIndexScanned   float64 `json:"mean_index_scanned"`   // posting entries touched building lists
	MeanRewritesEval   float64 `json:"mean_rewrites_evaluated"`
	MeanRewritesSkip   float64 `json:"mean_rewrites_skipped"`
	MeanJoinBranches   float64 `json:"mean_join_branches"`
	MeanPrunedBranches float64 `json:"mean_pruned_branches"`
	MeanHashProbes     float64 `json:"mean_hash_probes"`      // hash-index probes replacing list scans
	MeanSemiDropped    float64 `json:"mean_semijoin_dropped"` // entries pruned by semi-join reduction
	MeanTokenRes       float64 `json:"mean_token_resolutions"`
	MeanScanFallbacks  float64 `json:"mean_scan_fallbacks"`
}

// RunE5 measures processing cost across k for both modes on the full
// system.
func RunE5(w *dataset.World, numQueries int, ks []int) []E5Row {
	if len(ks) == 0 {
		ks = []int{1, 5, 10, 50}
	}
	inst := Build(w, System{Name: "full", UseXKG: true, UseRelax: true})
	workload := w.Workload(numQueries)
	var rows []E5Row
	for _, k := range ks {
		for _, mode := range []topk.Mode{topk.Incremental, topk.Exhaustive} {
			var ms, acc, scan, rev, rsk, jb, pb, hp, sd, tr, sf float64
			n := 0
			for _, wq := range workload {
				start := time.Now()
				_, m, err := inst.RunQuery(wq.Text, wq.Var, k, mode)
				if err != nil {
					continue
				}
				ms += float64(time.Since(start).Microseconds()) / 1000
				acc += float64(m.SortedAccesses)
				scan += float64(m.IndexScanned)
				rev += float64(m.RewritesEvaluated)
				rsk += float64(m.RewritesSkipped)
				jb += float64(m.JoinBranches)
				pb += float64(m.PrunedBranches)
				hp += float64(m.HashProbes)
				sd += float64(m.SemiJoinDropped)
				tr += float64(m.TokenResolutions)
				sf += float64(m.ScanFallbacks)
				n++
			}
			if n == 0 {
				continue
			}
			name := "incremental"
			if mode == topk.Exhaustive {
				name = "exhaustive"
			}
			rows = append(rows, E5Row{
				K: k, Mode: name,
				MeanMillis:         ms / float64(n),
				MeanAccesses:       acc / float64(n),
				MeanIndexScanned:   scan / float64(n),
				MeanRewritesEval:   rev / float64(n),
				MeanRewritesSkip:   rsk / float64(n),
				MeanJoinBranches:   jb / float64(n),
				MeanPrunedBranches: pb / float64(n),
				MeanHashProbes:     hp / float64(n),
				MeanSemiDropped:    sd / float64(n),
				MeanTokenRes:       tr / float64(n),
				MeanScanFallbacks:  sf / float64(n),
			})
		}
	}
	return rows
}

// FormatE5 renders the E5 table.
func FormatE5(rows []E5Row) string {
	var b strings.Builder
	b.WriteString("E5: top-k processing cost, incremental vs exhaustive (paper §4: avoiding the full rewriting space is crucial)\n")
	fmt.Fprintf(&b, "%4s %-12s %10s %12s %12s %10s %10s %12s %12s %10s %10s\n",
		"k", "mode", "ms/query", "sorted.acc", "idx.scan", "rw.eval", "rw.skip", "join.br", "pruned.br", "probes", "semi.drop")
	for _, r := range rows {
		fmt.Fprintf(&b, "%4d %-12s %10.2f %12.1f %12.1f %10.2f %10.2f %12.1f %12.1f %10.1f %10.1f\n",
			r.K, r.Mode, r.MeanMillis, r.MeanAccesses, r.MeanIndexScanned, r.MeanRewritesEval, r.MeanRewritesSkip,
			r.MeanJoinBranches, r.MeanPrunedBranches, r.MeanHashProbes, r.MeanSemiDropped)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E6 — §5 demo features: suggestion and auto-completion quality.
// ---------------------------------------------------------------------------

// E6Result reports suggestion coverage over token-predicate queries.
type E6Result struct {
	TokenQueries       int
	Suggested          int
	CorrectSuggestions int
	CompletionChecks   int
	CompletionHits     int
}

// RunE6 issues token-predicate variants of KG queries and checks that the
// suggester proposes the canonical predicate back; it also verifies
// auto-completion of entity-name prefixes.
func RunE6(w *dataset.World) E6Result {
	inst := Build(w, System{Name: "full", UseXKG: true, UseRelax: false})
	sugg := suggest.New(inst.Store)

	var res E6Result
	// Token variants of canonical predicates, as a user would type them.
	variants := map[string]string{
		"'worked at'":   "affiliation",
		"'lectured at'": "affiliation",
		"'was born in'": "bornIn",
	}
	keys := make([]string, 0, len(variants))
	for k := range variants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, tok := range keys {
		want := variants[tok]
		q := query.MustParse("?x " + tok + " ?y")
		res.TokenQueries++
		ss := sugg.Suggest(q)
		if len(ss) == 0 {
			continue
		}
		res.Suggested++
		if ss[0].Resource == want {
			res.CorrectSuggestions++
		}
	}
	// Auto-completion: every university must complete from a prefix.
	for _, u := range w.Universities() {
		res.CompletionChecks++
		prefix := u[:4]
		for _, c := range sugg.Complete(prefix, 50) {
			if c.Text == u {
				res.CompletionHits++
				break
			}
		}
	}
	return res
}

// FormatE6 renders the E6 summary.
func FormatE6(r E6Result) string {
	var b strings.Builder
	b.WriteString("E6: query suggestion and auto-completion (paper §5 demo features)\n")
	fmt.Fprintf(&b, "  token-predicate queries      %d\n", r.TokenQueries)
	fmt.Fprintf(&b, "  received a suggestion        %d\n", r.Suggested)
	fmt.Fprintf(&b, "  suggestion was canonical     %d\n", r.CorrectSuggestions)
	fmt.Fprintf(&b, "  completion prefix checks     %d\n", r.CompletionChecks)
	fmt.Fprintf(&b, "  completion hits              %d\n", r.CompletionHits)
	return b.String()
}

// E5DepthRow reports rewrite-space growth and cost for one relaxation
// depth bound.
type E5DepthRow struct {
	MaxDepth     int
	MeanRewrites float64
	MeanMillis   float64
	NDCG5        float64
}

// RunE5Depth sweeps the relaxation-depth bound, showing why the rewrite
// space must be pruned: it grows combinatorially with derivation depth
// while answer quality saturates.
func RunE5Depth(w *dataset.World, numQueries int, depths []int) []E5DepthRow {
	if len(depths) == 0 {
		depths = []int{0, 1, 2, 3}
	}
	inst := Build(w, System{Name: "full", UseXKG: true, UseRelax: true})
	workload := w.Workload(numQueries)
	var rows []E5DepthRow
	for _, d := range depths {
		ev := topk.New(inst.Store, topk.Options{K: 10})
		var rewrites, ms float64
		var ndcg []float64
		n := 0
		for _, wq := range workload {
			q, err := query.Parse(wq.Text)
			if err != nil {
				continue
			}
			q.Projection = q.ProjectedVars()
			exp := relax.NewExpander(inst.Rules)
			exp.MaxDepth = d
			exp.MaxRewrites = 256
			start := time.Now()
			rws := exp.Expand(q)
			answers, _ := ev.Evaluate(q, rws)
			ms += float64(time.Since(start).Microseconds()) / 1000
			rewrites += float64(len(rws))
			ranked := make([]string, 0, len(answers))
			for _, a := range answers {
				ranked = append(ranked, inst.Store.Dict().Term(a.Bindings[wq.Var]).Text)
			}
			ndcg = append(ndcg, eval.NDCG(ranked, wq.Judgments, 5))
			n++
		}
		if n == 0 {
			continue
		}
		rows = append(rows, E5DepthRow{
			MaxDepth:     d,
			MeanRewrites: rewrites / float64(n),
			MeanMillis:   ms / float64(n),
			NDCG5:        eval.Mean(ndcg),
		})
	}
	return rows
}

// FormatE5Depth renders the depth sweep.
func FormatE5Depth(rows []E5DepthRow) string {
	var b strings.Builder
	b.WriteString("E5b: rewrite-space growth vs relaxation depth (cap 256 rewrites/query)\n")
	fmt.Fprintf(&b, "%9s %12s %10s %8s\n", "maxDepth", "rewrites/q", "ms/query", "NDCG@5")
	for _, r := range rows {
		fmt.Fprintf(&b, "%9d %12.1f %10.2f %8.3f\n", r.MaxDepth, r.MeanRewrites, r.MeanMillis, r.NDCG5)
	}
	return b.String()
}
