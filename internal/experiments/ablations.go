package experiments

import (
	"fmt"
	"strings"

	"trinit/internal/dataset"
	"trinit/internal/eval"
	"trinit/internal/ned"
	"trinit/internal/query"
	"trinit/internal/relax"
	"trinit/internal/store"
	"trinit/internal/topk"
	"trinit/internal/xkg"
)

// ---------------------------------------------------------------------------
// E7 — ablation: which rule sources earn their keep?
//
// §3 lists four sources of relaxation rules: mining from the XKG, manual
// specification, rule mining à la AMIE, and paraphrase/relatedness
// resources. E7 enables them cumulatively and reports NDCG@5 and the
// rewrite-space size they induce.
// ---------------------------------------------------------------------------

// E7Row is one rule-source configuration.
type E7Row struct {
	Config       string
	Rules        int
	NDCG5        float64
	MeanRewrites float64
}

// RunE7 evaluates cumulative rule-source configurations on the full XKG.
func RunE7(w *dataset.World, numQueries int) []E7Row {
	st := store.New(nil, nil)
	w.PopulateKG(st)
	xkg.Build(st, ned.NewLinker(st), w.Docs(), xkg.DefaultOptions())
	st.Freeze()

	manual := []*relax.Rule{
		relax.MustParseRule("advisor-inv", "?x hasAdvisor ?y => ?y hasStudent ?x", 1.0, "manual"),
	}
	mopts := relax.MiningOptions{MinSupport: 2, MinWeight: 0.1, IncludeInverse: true}
	alignment := relax.Mine(st, mopts)
	composition := relax.MineCompositions(st, []string{"locatedIn", "partOf", "memberOf"}, mopts)
	horn := relax.MineHornRules(st, relax.HornOptions{MinSupport: 3, MinConfidence: 0.4, MaxPredicateTriples: 20000, MaxRules: 40})
	para, _ := (relax.ParaphraseOperator{}).Rules(st)
	rel, _ := (relax.RelatednessOperator{MinSim: 0.6, MaxRules: 40}).Rules(st)

	configs := []struct {
		name  string
		rules []*relax.Rule
	}{
		{"none (exact match)", nil},
		{"+ manual", manual},
		{"+ mined alignment/inversion", alignment},
		{"+ composition", composition},
		{"+ horn (AMIE-style)", horn},
		{"+ paraphrases", para},
		{"+ relatedness", rel},
	}

	workload := w.Workload(numQueries)
	var rows []E7Row
	var cum []*relax.Rule
	for _, cfg := range configs {
		cum = append(cum, cfg.rules...)
		rules := append([]*relax.Rule(nil), cum...)
		ev := topk.NewExecutor(st, topk.NewCache(0), topk.Options{K: 10})
		var ndcg []float64
		var rewrites float64
		n := 0
		for _, wq := range workload {
			q, err := query.Parse(wq.Text)
			if err != nil {
				continue
			}
			q.Projection = q.ProjectedVars()
			rws := relax.NewExpander(rules).Expand(q)
			answers, _ := ev.Evaluate(q, rws)
			ranked := make([]string, 0, len(answers))
			for _, a := range answers {
				ranked = append(ranked, st.Dict().Term(a.Bindings[wq.Var]).Text)
			}
			ndcg = append(ndcg, eval.NDCG(ranked, wq.Judgments, 5))
			rewrites += float64(len(rws))
			n++
		}
		row := E7Row{Config: cfg.name, Rules: len(rules), NDCG5: eval.Mean(ndcg)}
		if n > 0 {
			row.MeanRewrites = rewrites / float64(n)
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatE7 renders the rule-source ablation.
func FormatE7(rows []E7Row) string {
	var b strings.Builder
	b.WriteString("E7 (ablation): cumulative rule sources (§3 lists mining, manual rules, AMIE-style mining, paraphrases, relatedness)\n")
	fmt.Fprintf(&b, "%-32s %8s %8s %12s\n", "rule sources", "#rules", "NDCG@5", "rewrites/q")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-32s %8d %8.3f %12.1f\n", r.Config, r.Rules, r.NDCG5, r.MeanRewrites)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E8 — ablation: the scoring model's tf-like and idf-like effects (§4).
// ---------------------------------------------------------------------------

// E8Row is one scoring configuration.
type E8Row struct {
	Config string
	NDCG5  float64
	MRR    float64
}

// RunE8 evaluates the full system under scoring ablations.
func RunE8(w *dataset.World, numQueries int) []E8Row {
	inst := Build(w, System{Name: "full", UseXKG: true, UseRelax: true})
	workload := w.Workload(numQueries)

	configs := []struct {
		name                     string
		uniformConf, noNormalize bool
	}{
		{"full scoring (tf + idf)", false, false},
		{"no tf (uniform confidence)", true, false},
		{"no idf (unnormalised)", false, true},
		{"neither", true, true},
	}
	var rows []E8Row
	for _, cfg := range configs {
		ev := topk.NewExecutor(inst.Store, topk.NewCache(0), topk.Options{
			K: 10, UniformConf: cfg.uniformConf, NoNormalize: cfg.noNormalize,
		})
		var results []eval.QueryResult
		for _, wq := range workload {
			q, err := query.Parse(wq.Text)
			if err != nil {
				continue
			}
			q.Projection = q.ProjectedVars()
			rws := relax.NewExpander(inst.Rules).Expand(q)
			answers, _ := ev.Evaluate(q, rws)
			ranked := make([]string, 0, len(answers))
			for _, a := range answers {
				ranked = append(ranked, inst.Store.Dict().Term(a.Bindings[wq.Var]).Text)
			}
			results = append(results, eval.QueryResult{ID: wq.ID, Ranked: ranked, Judged: wq.Judgments})
		}
		rep := eval.Evaluate(results)
		rows = append(rows, E8Row{Config: cfg.name, NDCG5: rep.NDCG5, MRR: rep.MRR})
	}
	return rows
}

// FormatE8 renders the scoring ablation.
func FormatE8(rows []E8Row) string {
	var b strings.Builder
	b.WriteString("E8 (ablation): query-likelihood scoring effects (§4: tf-like confidence, idf-like selectivity)\n")
	fmt.Fprintf(&b, "%-32s %8s %8s\n", "scoring", "NDCG@5", "MRR")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-32s %8.3f %8.3f\n", r.Config, r.NDCG5, r.MRR)
	}
	return b.String()
}
