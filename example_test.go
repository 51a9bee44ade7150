package trinit_test

import (
	"context"
	"fmt"

	"trinit"
)

// The canonical session: load the paper's worked example and run user B's
// mis-directed query — relaxation inverts it.
func ExampleNewDemoEngine() {
	e := trinit.NewDemoEngine()
	res, _ := e.QueryContext(context.Background(), "AlbertEinstein hasAdvisor ?x")
	fmt.Println(res.Answers[0].Bindings["x"])
	// Output: AlfredKleiner
}

// Building an engine from scratch: curated facts, a text extension, a
// manual rule, and a query that needs all three.
func ExampleEngine_QueryContext() {
	e := trinit.New(nil)
	e.AddKGFact("AlbertEinstein", "affiliation", "IAS")
	e.AddKGFact("PrincetonUniversity", "member", "IvyLeague")
	e.ExtendFromDocuments([]trinit.Document{
		{ID: "web-1", Text: "The IAS was housed in Princeton University."},
	})
	e.Freeze()
	e.AddRule("r3", "?x affiliation ?y => ?x affiliation ?z ; ?z 'housed in' ?y", 0.8)

	res, _ := e.QueryContext(context.Background(), "SELECT ?x WHERE { AlbertEinstein affiliation ?x . ?x member IvyLeague }")
	for _, a := range res.Answers {
		fmt.Printf("%s %.2f\n", a.Bindings["x"], a.Score)
	}
	// Output: PrincetonUniversity 0.80
}

// Natural-language questions are translated into structured queries and
// answered by the same relaxation machinery (§6).
func ExampleEngine_Ask() {
	e := trinit.NewDemoEngine()
	res, translated, _ := e.Ask("What did Einstein win a Nobel prize for?")
	fmt.Println(translated)
	fmt.Println(res.Answers[0].Bindings["a"])
	// Output:
	// AlbertEinstein 'won prize for' ?a
	// discovery of the photoelectric effect
}

// Token queries receive canonical-vocabulary suggestions (§5).
func ExampleEngine_QueryContext_suggestions() {
	e := trinit.New(nil)
	e.AddKGFact("Alice", "worksFor", "Acme")
	e.AddKGFact("Bob", "worksFor", "Globex")
	e.AddTokenTriple("Alice", "works at", "Acme", 0.8, "", "")
	e.AddTokenTriple("Bob", "works at", "Globex", 0.8, "", "")
	e.Freeze()

	res, _ := e.QueryContext(context.Background(), "?x 'works at' ?y")
	for _, s := range res.Suggestions {
		fmt.Printf("replace '%s' with %s\n", s.Token, s.Resource)
	}
	// Output: replace 'works at' with worksFor
}

// Rules mined from the XKG bridge the curated and extracted vocabularies.
func ExampleEngine_MineRules() {
	e := trinit.New(nil)
	e.AddKGFact("Alice", "affiliation", "Acme")
	e.AddKGFact("Bob", "affiliation", "Globex")
	e.AddTokenTriple("Alice", "worked at", "Acme", 0.9, "", "")
	e.AddTokenTriple("Bob", "worked at", "Globex", 0.9, "", "")
	e.AddTokenTriple("Carol", "worked at", "Initech", 0.9, "", "")
	e.Freeze()

	specs, _ := e.MineRules(trinit.MiningConfig{MinSupport: 2, MinWeight: 0.5})
	for _, s := range specs {
		if s.ID == "mine:affiliation->'worked at'" {
			fmt.Printf("%s w=%.2f\n", s.ID, s.Weight)
		}
	}
	// Output: mine:affiliation->'worked at' w=0.67
}

// Every answer carries its full provenance: contributing KG and XKG
// triples (with source documents) and the relaxation rules invoked.
func ExampleEngine_QueryContext_explanation() {
	e := trinit.NewDemoEngine()
	res, _ := e.QueryContext(context.Background(), "SELECT ?x WHERE { AlbertEinstein affiliation ?x . ?x member IvyLeague }")
	ex := res.Answers[0].Explanation
	fmt.Println(len(ex.KGTriples), "KG triples,", len(ex.XKGTriples), "XKG triple(s)")
	fmt.Println("rule:", ex.Rules[0].ID)
	fmt.Println("source:", ex.XKGTriples[0].Doc)
	// Output:
	// 2 KG triples, 1 XKG triple(s)
	// rule: fig4-3
	// source: clueweb09-en0003-11-00542
}
