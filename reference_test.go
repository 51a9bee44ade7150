package trinit

// Helpers that check rankings against the test-only reference evaluator
// (internal/reference), the oracle of every differential in this
// package: a processor ranking over a prepared rewrite space, or an
// engine Result against the reference evaluation of the engine's own
// store, rules and expansion settings. Each configuration under test is
// checked against the reference directly, so a failure names the wrong
// side.

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"trinit/internal/dataset"
	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/reference"
	"trinit/internal/relax"
	"trinit/internal/score"
	"trinit/internal/topk"
)

// kernelModes are the processing modes every differential runs.
var kernelModes = []struct {
	name string
	mode topk.Mode
}{
	{"incremental", topk.Incremental},
	{"exhaustive", topk.Exhaustive},
}

// refCase is one query with its rewrite space, the answer count a
// processor with K = 10 returns for it, and the reference ranking.
type refCase struct {
	id       string
	q        *query.Query
	rewrites []relax.Rewrite
	k        int
	want     []reference.Answer
}

// newRefCase expands q with rules and evaluates it with the reference
// evaluator over the matcher m.
func newRefCase(id string, m *score.Matcher, rules []*relax.Rule, q *query.Query) refCase {
	q.Projection = q.ProjectedVars()
	c := refCase{id: id, q: q, rewrites: relax.NewExpander(rules).Expand(q), k: 10}
	if q.Limit > 0 && q.Limit < c.k {
		c.k = q.Limit
	}
	c.want = reference.Evaluate(m, q.Projection, c.rewrites)
	return c
}

// workloadCases prepares the full-instance reference cases of a workload.
func workloadCases(t *testing.T, workload []dataset.WorkloadQuery) []refCase {
	t.Helper()
	inst := fullInstance()
	m := score.NewMatcher(inst.Store)
	cases := make([]refCase, len(workload))
	for i, wq := range workload {
		q, err := query.Parse(wq.Text)
		if err != nil {
			t.Fatalf("%s: %v", wq.ID, err)
		}
		cases[i] = newRefCase(wq.ID, m, inst.Rules, q)
	}
	return cases
}

// check fails the test when got, a processor ranking of the case,
// departs from the reference.
func (c refCase) check(t *testing.T, label string, got []topk.Answer) {
	t.Helper()
	keyed := make([]reference.Answer, len(got))
	for i, a := range got {
		keyed[i] = reference.Answer{Key: string(topk.AnswerKey(nil, a.Bindings, c.q.Projection)), Score: a.Score}
	}
	if err := reference.Check(c.want, c.k, keyed); err != nil {
		t.Fatalf("%s %s: %v\nquery: %s", c.id, label, err, c.q)
	}
}

// engineRef is the reference ranking of one query text on an engine,
// keyed by term text rather than term IDs, so one reference serves
// engines whose dictionaries number terms differently.
type engineRef struct {
	text string
	proj []string
	k    int
	want []reference.Answer
}

// engineReference evaluates text on e's published store and rules with
// the reference evaluator, expanding the rewrite space exactly as the
// engine does.
func engineReference(t *testing.T, e *Engine, text string) engineRef {
	t.Helper()
	q, err := query.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	e.mu.RLock()
	rules := e.rules
	e.mu.RUnlock()
	ver := e.currentVersion()
	defer ver.unpin()
	exp := relax.NewExpander(rules)
	exp.MaxDepth = e.opts.MaxRelaxationDepth
	exp.MaxRewrites = e.opts.MaxRewrites
	exp.MinWeight = e.opts.MinRewriteWeight
	rewrites, err := exp.ExpandContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	r := engineRef{text: text, proj: q.ProjectedVars(), k: e.opts.K}
	if q.Limit > 0 && q.Limit < r.k {
		r.k = q.Limit
	}
	dict := ver.st.Dict()
	for _, a := range reference.Evaluate(topk.MatcherFor(ver.st, e.topkOptions()), r.proj, rewrites) {
		var key strings.Builder
		for _, kv := range strings.FieldsFunc(a.Key, func(r rune) bool { return r == ';' }) {
			v, id, _ := strings.Cut(kv, "=")
			n, err := strconv.ParseUint(id, 10, 32)
			if err != nil {
				t.Fatalf("reference key %q: %v", a.Key, err)
			}
			key.WriteString(v + "=" + dict.Term(rdf.TermID(n)).Text + ";")
		}
		r.want = append(r.want, reference.Answer{Key: key.String(), Score: a.Score})
	}
	return r
}

// check fails the test when res's answers depart from the reference.
func (r engineRef) check(t *testing.T, label string, res *Result) {
	t.Helper()
	got := make([]reference.Answer, len(res.Answers))
	for i, a := range res.Answers {
		var key strings.Builder
		for _, v := range r.proj {
			key.WriteString(v + "=" + a.Bindings[v] + ";")
		}
		got[i] = reference.Answer{Key: key.String(), Score: a.Score}
	}
	if err := reference.Check(r.want, r.k, got); err != nil {
		t.Fatalf("%s %s: %v", r.text, label, err)
	}
}
