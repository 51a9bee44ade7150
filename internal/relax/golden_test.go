package relax_test

import (
	"bytes"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"trinit/internal/dataset"
	"trinit/internal/ned"
	"trinit/internal/query"
	"trinit/internal/relax"
	"trinit/internal/store"
	"trinit/internal/xkg"
)

var update = flag.Bool("update", false, "regenerate testdata/expansion.golden")

const goldenPath = "testdata/expansion.golden"

var (
	goldenOnce  sync.Once
	goldenWorld *dataset.World
	goldenStore *store.Store
)

// goldenCorpus is the default synthetic world with its XKG built and the
// store frozen, shared by every test of this file.
func goldenCorpus() (*dataset.World, *store.Store) {
	goldenOnce.Do(func() {
		goldenWorld = dataset.Generate(dataset.DefaultConfig())
		goldenStore = store.New(nil, nil)
		goldenWorld.PopulateKG(goldenStore)
		xkg.Build(goldenStore, ned.NewLinker(goldenStore), goldenWorld.Docs(), xkg.DefaultOptions())
		goldenStore.Freeze()
	})
	return goldenWorld, goldenStore
}

// benchRules mines the rule set the benchmark corpus carries: the manual
// advisor inversion, Mine and MineCompositions.
func benchRules(st *store.Store) []*relax.Rule {
	rules := []*relax.Rule{
		relax.MustParseRule("advisor-inv", "?x hasAdvisor ?y => ?y hasStudent ?x", 1.0, "manual"),
	}
	mopts := relax.MiningOptions{MinSupport: 2, MinWeight: 0.1, IncludeInverse: true}
	rules = append(rules, relax.Mine(st, mopts)...)
	return append(rules, relax.MineCompositions(st, []string{"locatedIn", "partOf", "memberOf"}, mopts)...)
}

// extendedRules adds every other rule source to benchRules: Horn rules and
// typed compositions (multi-pattern LHS, RHS-only variables), paraphrase
// and relatedness operators (token predicates), and manual rules whose
// token constants differ from the store's phrases only before
// normalisation.
func extendedRules(t testing.TB, st *store.Store) []*relax.Rule {
	rules := benchRules(st)
	rules = append(rules, relax.MineHornRules(st, relax.DefaultHornOptions())...)
	topts := relax.DefaultTypedCompositionOptions()
	topts.Containment = []string{"locatedIn", "partOf", "memberOf"}
	rules = append(rules, relax.MineTypedCompositions(st, topts)...)
	for _, op := range []relax.Operator{relax.ParaphraseOperator{}, relax.RelatednessOperator{MinSim: 0.5}} {
		rs, err := op.Rules(st)
		if err != nil {
			t.Fatal(err)
		}
		rules = append(rules, rs...)
	}
	return append(rules,
		relax.MustParseRule("tok-norm", "?x 'Worked at the' ?u => ?x affiliation ?u", 0.9, "manual"),
		relax.MustParseRule("tok-fresh", "?x 'won prize for' ?f => ?x 'won a Prize' ?p ; ?p 'for' ?f", 0.7, "manual"),
		relax.MustParseRule("tok-quote", "?x affiliation ?u => ?x 'worked at O\\'Hare' ?u", 0.6, "manual"),
	)
}

// goldenQueries is the 70-query synthetic workload, the benchmark's
// wide-join shapes over a few cities and every league, and token-phrase
// point and join queries.
func goldenQueries(w *dataset.World) []string {
	var out []string
	for _, q := range w.Workload(70) {
		out = append(out, q.Text)
	}
	cities := w.Cities()
	if len(cities) > 4 {
		cities = cities[:4]
	}
	leagues := map[string]bool{}
	for _, l := range w.Truth.UniLeague {
		leagues[l] = true
	}
	for _, c := range cities {
		out = append(out,
			fmt.Sprintf("SELECT ?x WHERE { ?x affiliation ?u . ?u locatedIn %s }", c),
			fmt.Sprintf("?x ?p ?y . ?y locatedIn %s . ?x affiliation ?u", c),
			fmt.Sprintf("?x 'worked at' ?u . ?u locatedIn %s", c))
	}
	for _, l := range slices.Sorted(maps.Keys(leagues)) {
		out = append(out, fmt.Sprintf("SELECT ?x WHERE { ?x affiliation ?u . ?u member %s }", l))
	}
	for _, u := range w.Universities()[:3] {
		out = append(out, fmt.Sprintf("?x 'Worked at' %s", u))
	}
	return out
}

// bounds are the two expansion bound settings the golden file pins: the
// engine default and the wide-join workload's.
var bounds = []struct {
	name            string
	depth, rewrites int
}{
	{"depth2-64", 2, 64},
	{"depth3-256", 3, 256},
}

// renderExpansions expands every golden query under every rule set and
// bound setting and renders each rewrite as its query text, the exact
// bits of its weight, and the IDs of its applied rules.
func renderExpansions(t testing.TB) []byte {
	w, st := goldenCorpus()
	ruleSets := []struct {
		name  string
		rules []*relax.Rule
	}{
		{"bench", benchRules(st)},
		{"extended", extendedRules(t, st)},
	}
	queries := goldenQueries(w)
	var b bytes.Buffer
	for _, rs := range ruleSets {
		for _, bd := range bounds {
			exp := relax.NewExpander(rs.rules)
			exp.MaxDepth, exp.MaxRewrites = bd.depth, bd.rewrites
			for _, text := range queries {
				q := query.MustParse(text)
				q.Projection = q.ProjectedVars()
				fmt.Fprintf(&b, "## %s %s %s\n", rs.name, bd.name, text)
				for _, rw := range exp.Expand(q) {
					ids := make([]string, len(rw.Applied))
					for i, r := range rw.Applied {
						ids[i] = r.ID
					}
					fmt.Fprintf(&b, "%s\t%016x\t%s\n", rw.Query, math.Float64bits(rw.Weight), strings.Join(ids, ","))
				}
			}
		}
	}
	return b.Bytes()
}

// TestExpansionGolden pins the expander's output — rewrite text, weight
// bits, applied rule IDs, and their order — on the synthetic workload
// under both rule sets and both bound settings. Regenerate with
// go test ./internal/relax -run TestExpansionGolden -update.
func TestExpansionGolden(t *testing.T) {
	got := renderExpansions(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("expansion differs from %s at line %d:\n got: %s\nwant: %s", goldenPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("expansion differs from %s in length: %d lines, want %d", goldenPath, len(gl), len(wl))
}
