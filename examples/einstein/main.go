// Einstein: the paper's running example end to end — the four users of
// Figure 2 fail on the raw KG and succeed after relaxation over the
// extended knowledge graph, each with a full answer explanation (§5).
package main

import (
	"context"
	"fmt"
	"log"

	"trinit"
)

func main() {
	e := trinit.NewDemoEngine()
	s := e.Stats()
	fmt.Printf("demo XKG: %d KG triples (Figure 1) + %d token triples (Figure 3), %d rules (Figure 4)\n\n",
		s.KGTriples, s.XKGTriples, s.Rules)

	for _, dq := range trinit.DemoQueries() {
		fmt.Printf("== user %s: %s\n", dq.User, dq.Need)
		fmt.Printf("   query: %s\n", dq.Query)
		res, err := e.QueryContext(context.Background(), dq.Query)
		if err != nil {
			log.Fatal(err)
		}
		if len(res.Answers) == 0 {
			fmt.Println("   no answers")
			continue
		}
		top := res.Answers[0]
		fmt.Printf("   top answer: %v (score %.3f)\n", top.Bindings, top.Score)
		if dq.EmptyWithoutRelaxation {
			fmt.Println("   (the raw KG query returns nothing — relaxation found this)")
		}
		fmt.Println("   explanation:")
		fmt.Print(indent(top.Explanation.Text, "     "))
		fmt.Println()
	}
}

func indent(s, prefix string) string {
	out := ""
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if i > start {
				out += prefix + s[start:i] + "\n"
			}
			start = i + 1
		}
	}
	return out
}
