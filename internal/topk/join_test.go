package topk

import (
	"context"
	"fmt"
	"math"
	"testing"

	"trinit/internal/query"
	"trinit/internal/rdf"
	"trinit/internal/reference"
	"trinit/internal/relax"
	"trinit/internal/score"
	"trinit/internal/store"
)

func matchList(st *store.Store, qs string) *patternList {
	q := query.MustParse(qs)
	m := score.NewMatcher(st)
	return newPatternList(m.MatchPattern(q.Patterns[0]))
}

func TestPatternListBuckets(t *testing.T) {
	st := demoXKG()
	pl := matchList(st, "?x ?p ?y")
	if len(pl.vars) != 3 {
		t.Fatalf("vars = %v, want x, p, y", pl.vars)
	}
	ein, ok := st.Dict().Lookup(rdf.Resource("AlbertEinstein"))
	if !ok {
		t.Fatal("AlbertEinstein not interned")
	}
	xi := pl.varIndex("x")
	if xi < 0 {
		t.Fatalf("varIndex(x) = %d", xi)
	}
	bucket := pl.buckets[xi][ein]
	if len(bucket) == 0 {
		t.Fatal("empty bucket for AlbertEinstein")
	}
	// Bucket positions must be ascending (list order = descending
	// probability) and every bucketed entry must bind x to the key.
	prev := int32(-1)
	for _, p := range bucket {
		if p <= prev {
			t.Fatalf("bucket not ascending: %v", bucket)
		}
		prev = p
		if got, _ := pl.matches[p].BindingOf("x"); got != ein {
			t.Fatalf("bucket entry %d binds x to %v, want %v", p, got, ein)
		}
	}
	// Every list entry binding x to the key must be in the bucket.
	n := 0
	for _, m := range pl.matches {
		if got, _ := m.BindingOf("x"); got == ein {
			n++
		}
	}
	if n != len(bucket) {
		t.Fatalf("bucket holds %d entries, list has %d matching", len(bucket), n)
	}
}

func TestSemiJoinReduceDropsPartnerlessEntries(t *testing.T) {
	st := demoXKG()
	// ?x affiliation ?u (1 match: Einstein->IAS) joins ?u member ?l
	// (1 match: Princeton->IvyLeague) on ?u with NO common binding, so
	// both lists must empty.
	lists := []*patternList{
		matchList(st, "?x affiliation ?u"),
		matchList(st, "?u member ?l"),
	}
	var m Metrics
	_, liveCount, _ := semiJoinReduce(lists, &m)
	if liveCount[0] != 0 || liveCount[1] != 0 {
		t.Fatalf("liveCount = %v, want both 0 (no join partner on ?u)", liveCount)
	}
	if m.SemiJoinDropped != 2 {
		t.Fatalf("SemiJoinDropped = %d, want 2", m.SemiJoinDropped)
	}

	// A consistent pair survives intact: Einstein's affiliation and the
	// IAS 'housed in' triple share ?u = IAS.
	lists = []*patternList{
		matchList(st, "?x affiliation ?u"),
		matchList(st, "?u 'housed in' ?w"),
	}
	m = Metrics{}
	alive, liveCount, head := semiJoinReduce(lists, &m)
	if liveCount[0] != 1 || liveCount[1] < 1 {
		t.Fatalf("liveCount = %v, want the consistent entries kept", liveCount)
	}
	if alive[0] != nil && !alive[0][0] {
		t.Fatal("surviving list 0 head marked dead")
	}
	if head[0] != lists[0].matches[0].Prob {
		t.Fatalf("headProb = %v, want %v", head[0], lists[0].matches[0].Prob)
	}
}

func TestJoinOrderPrefersConnectedPatterns(t *testing.T) {
	q := query.MustParse("?a p1 ?b . ?c p2 ?d . ?b p3 ?c")
	// Length order would interleave the disconnected patterns 0 and 1;
	// connectivity must pull pattern 2 (sharing ?b) after pattern 0.
	got := buildVarPlan(q.Patterns).joinOrder([]int{0, 1, 2})
	want := []int{0, 2, 1}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("joinOrder = %v, want %v", got, want)
	}
	// A fully connected chain keeps the length order when it is already
	// connected at every step.
	got = buildVarPlan(q.Patterns).joinOrder([]int{2, 0, 1})
	want = []int{2, 0, 1}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("joinOrder = %v, want %v", got, want)
	}
}

// TestHashJoinKernelMatchesLegacyKernel: the hash-probed, semi-join
// reduced block kernel must return the answers of the legacy full-scan
// nested-loop join — kept as the test-only reference evaluator — on the
// demo workload, in both processing modes.
func TestHashJoinKernelMatchesLegacyKernel(t *testing.T) {
	st := demoXKG()
	queries := []string{
		"?x bornIn Germany",
		"AlbertEinstein hasAdvisor ?x",
		"SELECT ?x WHERE { AlbertEinstein affiliation ?x . ?x member IvyLeague }",
		"?x bornIn ?y . ?y locatedIn ?z",
		"?x ?p ?y . ?y locatedIn ?z",
		"AlbertEinstein 'won nobel for' ?x",
	}
	for _, qs := range queries {
		checkReference(t, st, qs, figure4(), 5)
	}
}

// checkReference evaluates qs over st in both modes and checks every
// ranking of k answers against the reference evaluator.
func checkReference(t *testing.T, st *store.Store, qs string, rules []*relax.Rule, k int) {
	t.Helper()
	q := query.MustParse(qs)
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(rules).Expand(q)
	want := reference.Evaluate(score.NewMatcher(st), q.Projection, rewrites)
	for _, mode := range []Mode{Incremental, Exhaustive} {
		ev := New(st, Options{K: k, Mode: mode})
		got, _, err := ev.Run(context.Background(), q, rewrites, RunConfig{})
		if err != nil {
			t.Fatalf("%s (%v): %v", qs, mode, err)
		}
		keyed := make([]reference.Answer, len(got))
		for i, a := range got {
			keyed[i] = reference.Answer{Key: string(AnswerKey(nil, a.Bindings, q.Projection)), Score: a.Score}
		}
		if err := reference.Check(want, k, keyed); err != nil {
			t.Fatalf("%s (%v): %v", qs, mode, err)
		}
	}
}

// TestHashJoinProbesReduceWork: on a join whose first pattern binds the
// probe variable, the kernel must report hash probes and touch fewer
// entries than a scan join, which reads every entry of both lists.
func TestHashJoinProbesReduceWork(t *testing.T) {
	st := skewedStore(60)
	q := query.MustParse("SELECT ?x ?y WHERE { ?x p ?y . ?x q Z }")
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(nil).Expand(q)
	_, m := New(st, Options{K: 10, Mode: Exhaustive}).Evaluate(q, rewrites)
	const scanned = 60 + 1
	if m.HashProbes == 0 {
		t.Fatalf("kernel issued no probes: %+v", m)
	}
	if m.SortedAccesses >= scanned {
		t.Errorf("SortedAccesses = %d, not below a scan join's %d", m.SortedAccesses, scanned)
	}
	if m.JoinBranches >= scanned {
		t.Errorf("JoinBranches = %d, not below a scan join's %d", m.JoinBranches, scanned)
	}
}

// TestSemiJoinEmptiesDeadRewrite: when the reduction proves a rewrite can
// produce no complete binding, enumeration is skipped entirely and the
// trace says so.
func TestSemiJoinEmptiesDeadRewrite(t *testing.T) {
	st := demoXKG()
	// affiliation (Einstein->IAS) and member (Princeton->IvyLeague)
	// share ?u but no term: joinable only through relaxation.
	q := query.MustParse("SELECT ?x WHERE { ?x affiliation ?u . ?u member ?l }")
	q.Projection = q.ProjectedVars()
	rewrites := relax.NewExpander(nil).Expand(q)
	ev := New(st, Options{K: 5})
	ans, m := ev.Evaluate(q, rewrites)
	if len(ans) != 0 {
		t.Fatalf("answers = %d, want 0", len(ans))
	}
	if m.SemiJoinDropped == 0 {
		t.Fatalf("SemiJoinDropped = 0: %+v", m)
	}
	if m.JoinBranches != 0 {
		t.Errorf("JoinBranches = %d, want 0 (enumeration skipped)", m.JoinBranches)
	}
	tr := ev.LastTrace()
	if len(tr) != 1 || tr[0].Status != "no matches (semi-join)" {
		t.Fatalf("trace = %+v", tr)
	}
	if len(tr[0].SemiJoinKept) != 2 || tr[0].SemiJoinKept[0] != 0 || tr[0].SemiJoinKept[1] != 0 {
		t.Errorf("SemiJoinKept = %v, want [0 0]", tr[0].SemiJoinKept)
	}
}

// TestThresholdHeapMatchesSortedThreshold: the incremental min-heap must
// agree with a full sort of the answer scores after every write, including
// in-place score improvements (max-over-derivations).
func TestThresholdHeapMatchesSortedThreshold(t *testing.T) {
	ref := func(s *state) float64 {
		if len(s.answers) < s.k {
			return 0
		}
		scores := make([]float64, 0, len(s.answers))
		for _, e := range s.answers {
			scores = append(scores, e.a.Score)
		}
		for i := range scores { // selection "sort" is fine at test size
			for j := i + 1; j < len(scores); j++ {
				if scores[j] > scores[i] {
					scores[i], scores[j] = scores[j], scores[i]
				}
			}
		}
		return scores[s.k-1]
	}
	seq := []struct {
		key   string
		score float64
	}{
		{"a", 0.5}, {"b", 0.3}, {"c", 0.8}, {"d", 0.1}, {"b", 0.9},
		{"e", 0.2}, {"d", 0.95}, {"f", 0.05}, {"a", 0.55}, {"g", 0.85},
		{"f", 0.06}, {"h", 0.85}, {"c", 0.99}, {"i", 0.5}, {"e", 0.96},
	}
	for k := 1; k <= 6; k++ {
		s := newState(k)
		for step, w := range seq {
			score := w.score
			s.record([]byte(w.key), score, func() Answer { return Answer{Score: score} })
			if got, want := s.threshold(), ref(s); got != want {
				t.Fatalf("k=%d step %d (%s=%v): threshold %v, want %v", k, step, w.key, w.score, got, want)
			}
		}
	}
}

// TestRecordKeepsFirstDerivationOnTie pins record's tie rule. Run
// offers derivations in canonical order (rewrites by descending weight,
// bindings in enumeration order), so of two derivations of one answer
// at a bit-equal score the first must stay; only a strictly higher
// score replaces it.
func TestRecordKeepsFirstDerivationOnTie(t *testing.T) {
	offer := func(s *state, score float64, triple store.ID) (wrote, admitted bool) {
		return s.record([]byte("x=7;"), score, func() Answer {
			return Answer{Score: score, Derivation: Derivation{Triples: []store.ID{triple}}}
		})
	}
	kept := func(s *state) (float64, store.ID) {
		a := s.ranked(s.k)[0]
		return a.Score, a.Derivation.Triples[0]
	}

	s := newState(3)
	tie := 0.3 * 0.7
	if wrote, admitted := offer(s, tie, 1); !wrote || !admitted {
		t.Fatalf("first derivation: wrote=%v admitted=%v, want true, true", wrote, admitted)
	}
	if wrote, admitted := offer(s, 0.7*0.3, 2); wrote || admitted {
		t.Fatalf("tied derivation: wrote=%v admitted=%v, want false, false", wrote, admitted)
	}
	if score, tr := kept(s); score != tie || tr != 1 {
		t.Fatalf("after tie: kept score %v from triple %d, want %v from triple 1", score, tr, tie)
	}

	better := math.Nextafter(tie, 1)
	if wrote, admitted := offer(s, better, 3); !wrote || !admitted {
		t.Fatalf("higher derivation: wrote=%v admitted=%v, want true, true", wrote, admitted)
	}
	if score, tr := kept(s); score != better || tr != 3 {
		t.Fatalf("after improvement: kept score %v from triple %d, want %v from triple 3", score, tr, better)
	}
	if len(s.answers) != 1 {
		t.Fatalf("%d answers stored for one key", len(s.answers))
	}
}
