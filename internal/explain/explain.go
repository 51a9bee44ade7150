// Package explain produces answer explanations (§5): for each answer, the
// KG triples that contributed, the XKG triples that contributed together
// with their provenance, and the relaxation rules that were invoked. This
// is the information behind the demo's answer-explanation interface
// (Figure 6), and it doubles as a way for users to learn the KG's schema
// and its shortcomings.
package explain

import (
	"fmt"
	"sort"
	"strings"

	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/store"
	"trinit/internal/topk"
)

// Explanation is the provenance of a single answer.
type Explanation struct {
	// OriginalQuery and RewrittenQuery show what relaxation changed.
	OriginalQuery  string
	RewrittenQuery string
	// Weight is the derivation weight.
	Weight float64
	// KGTriples and XKGTriples are the contributing facts, split by
	// source as in the demo interface. Both are non-nil.
	KGTriples  []TripleEvidence
	XKGTriples []TripleEvidence
	// Rules are the relaxation rules invoked, in application order (nil
	// when none was).
	Rules []RuleEvidence
	// Text is the rendered multi-line explanation, in the spirit of the
	// demo's answer-explanation pane.
	Text string
}

// TripleEvidence is one contributing triple.
type TripleEvidence struct {
	// Triple is the rendered triple.
	Triple string
	// Pattern is the rewritten-query pattern the triple matched.
	Pattern string
	// Source is "KG" or "XKG".
	Source string
	// Confidence is the triple's confidence.
	Confidence float64
	// Prob is the pattern's emission probability for this triple.
	Prob float64
	// Doc and Sentence carry provenance for XKG triples.
	Doc, Sentence string
}

// RuleEvidence is one invoked relaxation rule.
type RuleEvidence struct {
	ID     string
	Rule   string
	Origin string
	Weight float64
}

// Explain builds the explanation of an answer produced by the evaluator.
func Explain(st *store.Store, original *query.Query, a topk.Answer) Explanation {
	d := a.Derivation
	ex := Explanation{
		OriginalQuery:  original.String(),
		RewrittenQuery: d.Rewrite.Query.String(),
		Weight:         d.Rewrite.Weight,
	}
	// One backing array holds both sources' evidence: KG triples fill
	// the front, XKG triples the back.
	nKG := 0
	for _, id := range d.Triples {
		if st.Triple(id).Source == rdf.SourceKG {
			nKG++
		}
	}
	evidence := make([]TripleEvidence, len(d.Triples))
	ex.KGTriples, ex.XKGTriples = evidence[:0:nKG], evidence[nKG:nKG]
	for i, id := range d.Triples {
		tr := st.Triple(id)
		te := TripleEvidence{
			Triple:     tr.Format(st.Dict()),
			Source:     tr.Source.String(),
			Confidence: tr.Conf,
		}
		if i < len(d.Rewrite.Query.Patterns) {
			te.Pattern = d.Rewrite.Query.Patterns[i].String()
		}
		if i < len(d.PatternProbs) {
			te.Prob = d.PatternProbs[i]
		}
		if tr.Source == rdf.SourceKG {
			ex.KGTriples = append(ex.KGTriples, te)
		} else {
			prov := st.Prov().Get(tr.Prov)
			te.Doc = prov.Doc
			te.Sentence = prov.Sentence
			ex.XKGTriples = append(ex.XKGTriples, te)
		}
	}
	for _, r := range d.Rewrite.Applied {
		ex.Rules = append(ex.Rules, RuleEvidence{
			ID:     r.ID,
			Rule:   r.String(),
			Origin: r.Origin,
			Weight: r.Weight,
		})
	}
	ex.Text = render(st.Dict(), a.Score, a.Bindings, &ex)
	return ex
}

// render formats the explanation text: the answer's score and bindings
// (variables in name order), the invoked relaxations, and the
// contributing triples by source.
func render(dict *rdf.Dict, score float64, bindings map[string]rdf.TermID, ex *Explanation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "answer (score %.4f):\n", score)
	vars := make([]string, 0, len(bindings))
	for v := range bindings {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		fmt.Fprintf(&b, "  ?%s = %s\n", v, dict.Term(bindings[v]).String())
	}
	if len(ex.Rules) > 0 {
		fmt.Fprintf(&b, "relaxations invoked (derivation weight %.2f):\n", ex.Weight)
		for _, r := range ex.Rules {
			fmt.Fprintf(&b, "  [%s] %s: %s\n", r.Origin, r.ID, r.Rule)
		}
		fmt.Fprintf(&b, "rewritten query: %s\n", ex.RewrittenQuery)
	} else {
		b.WriteString("no relaxation needed\n")
	}
	if len(ex.KGTriples) > 0 {
		b.WriteString("KG triples:\n")
		for _, t := range ex.KGTriples {
			fmt.Fprintf(&b, "  %s  (matched %s, P=%.3f)\n", t.Triple, t.Pattern, t.Prob)
		}
	}
	if len(ex.XKGTriples) > 0 {
		b.WriteString("XKG triples:\n")
		for _, t := range ex.XKGTriples {
			fmt.Fprintf(&b, "  %s  (conf %.2f, matched %s, P=%.3f)\n", t.Triple, t.Confidence, t.Pattern, t.Prob)
			if t.Doc != "" {
				fmt.Fprintf(&b, "    source: %s: %q\n", t.Doc, t.Sentence)
			}
		}
	}
	return b.String()
}
