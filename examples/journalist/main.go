// Journalist: the §5 use case — join-intensive entity-relationship queries
// over a large extended knowledge graph, "the advanced information needs
// of journalists, market analysts, and other knowledge workers". The
// answers combine triples from the curated KG and from Open-IE extractions
// across multiple source documents, something no single web page contains.
package main

import (
	"context"
	"fmt"
	"log"

	"trinit"
)

func main() {
	cfg := trinit.DefaultSyntheticConfig()
	cfg.People = 200
	engine, workload, err := trinit.NewSyntheticEngine(cfg, 70)
	if err != nil {
		log.Fatal(err)
	}
	s := engine.Stats()
	fmt.Printf("synthetic XKG: %d triples (%d KG + %d Open-IE), %d relaxation rules\n\n",
		s.Triples, s.KGTriples, s.XKGTriples, s.Rules)

	// A research dossier: every join-intensive query of the workload,
	// i.e. queries whose answers require combining multiple triples.
	shown := 0
	for _, wq := range workload {
		if wq.Category != "cityjoin" && wq.Category != "leaguejoin" {
			continue
		}
		if shown >= 3 {
			break
		}
		shown++
		fmt.Printf("== %s (%s)\n   %s\n", wq.ID, wq.Category, wq.Text)
		res, err := engine.QueryContext(context.Background(), wq.Text+" LIMIT 5")
		if err != nil {
			log.Fatal(err)
		}
		for i, a := range res.Answers {
			marker := " "
			if wq.Judgments[a.Bindings[wq.Var]] > 0 {
				marker = "*" // confirmed by the ground truth
			}
			fmt.Printf("  %s%d. %-30s score %.3f", marker, i+1, a.Bindings[wq.Var], a.Score)
			if len(a.Explanation.XKGTriples) > 0 {
				fmt.Printf("  [uses %d Open-IE triple(s), e.g. %s]",
					len(a.Explanation.XKGTriples), a.Explanation.XKGTriples[0].Doc)
			}
			fmt.Println()
		}
		fmt.Println()
	}

	// Cross-source investigation: an entity pair query joining a person,
	// their university, and its league — three triples from up to three
	// different sources.
	q := "SELECT ?x ?u WHERE { ?x affiliation ?u . ?u member IvyLeague } LIMIT 5"
	fmt.Printf("== entity-pair query (returns tuples, §5)\n   %s\n", q)
	res, err := engine.QueryContext(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	for i, a := range res.Answers {
		fmt.Printf("  %d. ?x=%s  ?u=%s  (score %.3f)\n", i+1, a.Bindings["x"], a.Bindings["u"], a.Score)
	}

	// Dossier narrowing with a date filter: 19th-century scientists at
	// Ivy League institutions.
	q = "SELECT ?x WHERE { ?x affiliation ?u . ?u member IvyLeague . ?x bornOn ?d . FILTER(?d < '1900-01-01') } LIMIT 5"
	fmt.Printf("\n== filtered query (birth date before 1900)\n   %s\n", q)
	res, err = engine.QueryContext(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Answers) == 0 {
		fmt.Println("   no answers")
	}
	for i, a := range res.Answers {
		fmt.Printf("  %d. %s (score %.2g)\n", i+1, a.Bindings["x"], a.Score)
	}
}
