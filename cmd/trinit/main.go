// Command trinit is an interactive REPL for exploratory querying of an
// extended knowledge graph.
//
// Usage:
//
//	trinit [-synthetic] [-people N] [-seed S]
//
// Enter triple-pattern queries directly; dot-commands control the session:
//
//	.help                      show commands
//	.stats                     XKG statistics
//	.rules                     list relaxation rules
//	.rule <id> <w> <rule...>   add a manual rule, e.g.
//	                           .rule r9 0.7 ?x affiliation ?y => ?x 'lectured at' ?y
//	.complete <prefix>         auto-complete a resource or phrase
//	.explain <n>               explain answer n of the last result
//	.save <path>               persist the XKG and rules: a checksummed
//	                           binary snapshot, or the TNT text format
//	                           when the path ends in .tnt
//	.load <path>               replace the session with a saved snapshot
//	.quit                      exit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"trinit"
)

func main() {
	synthetic := flag.Bool("synthetic", false, "load the synthetic world instead of the paper demo")
	people := flag.Int("people", 120, "synthetic world size (people)")
	seed := flag.Int64("seed", 1, "synthetic world seed")
	load := flag.String("load", "", "load a saved XKG (.tnt file) instead of demo/synthetic data")
	flag.Parse()

	var engine *trinit.Engine
	if *load != "" {
		e, err := trinit.LoadFile(*load, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trinit: %v\n", err)
			os.Exit(1)
		}
		e.Freeze()
		engine = e
	} else if *synthetic {
		cfg := trinit.DefaultSyntheticConfig()
		cfg.People = *people
		cfg.Seed = *seed
		e, _, err := trinit.NewSyntheticEngine(cfg, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trinit: %v\n", err)
			os.Exit(1)
		}
		engine = e
	} else {
		engine = trinit.NewDemoEngine()
	}

	runREPL(engine, os.Stdin, os.Stdout)
}

// runREPL drives the interactive session; separated from main so the
// command logic is testable with scripted input.
func runREPL(engine *trinit.Engine, in io.Reader, out io.Writer) {
	st := engine.Stats()
	fmt.Fprintf(out, "TriniT REPL — %d triples (%d KG, %d XKG), %d rules. Type .help for commands.\n",
		st.Triples, st.KGTriples, st.XKGTriples, st.Rules)

	var last *trinit.Result
	scanner := bufio.NewScanner(in)
	fmt.Fprint(out, "trinit> ")
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
		case line == ".quit" || line == ".exit":
			return
		case line == ".help":
			fmt.Fprintln(out, "queries: triple patterns, e.g.  AlbertEinstein affiliation ?x ; ?x member IvyLeague")
			fmt.Fprintln(out, "commands: .ask <question> .watch <query> .stats .serving .shards [n] .rules .rule <id> <w> <rule> .complete <prefix> .explain <n> .trace .save <path> .load <path> .quit")
		case line == ".stats":
			s := engine.Stats()
			fmt.Fprintf(out, "triples=%d (KG %d, XKG %d) terms=%d predicates=%d (%d token) rules=%d\n",
				s.Triples, s.KGTriples, s.XKGTriples, s.Terms, s.Predicates, s.TokenPreds, s.Rules)
		case line == ".serving":
			sv := engine.ServingStats()
			fmt.Fprintf(out, "queries=%d in_flight=%d shed=%d budget_exhausted=%d panics_recovered=%d\n",
				sv.QueriesTotal, sv.InFlight, sv.QueriesShed, sv.BudgetExhausted, sv.PanicsRecovered)
			a := sv.Admission
			if a.Capacity == 0 {
				fmt.Fprintln(out, "admission: disabled")
			} else {
				fmt.Fprintf(out, "admission: capacity=%d in_use=%d queued=%d admitted=%d avg_wait=%s\n",
					a.Capacity, a.InUse, a.Queued, a.Admitted, a.AvgWait)
			}
		case line == ".shards" || strings.HasPrefix(line, ".shards "):
			// .shards prints the sharded-execution state; .shards <n>
			// repartitions the frozen store in place (1 = unsharded).
			if arg := strings.TrimSpace(strings.TrimPrefix(line, ".shards")); arg != "" {
				n, err := strconv.Atoi(arg)
				if err != nil || n < 1 {
					fmt.Fprintln(out, "usage: .shards [n>=1]")
					break
				}
				if err := engine.Reshard(n); err != nil {
					fmt.Fprintf(out, "error: %v\n", err)
					break
				}
			}
			ss := engine.ShardingStats()
			if ss.Shards == 0 {
				fmt.Fprintln(out, "sharding: off (single store; .shards <n> to partition)")
				break
			}
			fmt.Fprintf(out, "sharding: %d shards, skew %.2f, %d replicated predicates (%d triples copied)\n",
				ss.Shards, ss.Skew, ss.ReplicatedPreds, ss.ReplicatedTriples)
			for j := range ss.Triples {
				fmt.Fprintf(out, "  shard %d: %d triples (%d owned)\n", j, ss.Triples[j], ss.Owned[j])
			}
			fmt.Fprintf(out, "  queries=%d bound_broadcasts=%d cross_shard_prunes=%d residual_rewrites=%d merge=%s\n",
				ss.ShardedQueries, ss.BoundBroadcasts, ss.CrossShardPrunes, ss.ResidualRewrites, ss.MergeTime)
		case line == ".rules":
			for _, r := range engine.Rules() {
				fmt.Fprintf(out, "  %-24s %s\n", r.ID, r.Rule)
			}
		case strings.HasPrefix(line, ".rule "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				fmt.Fprintln(out, "usage: .rule <id> <weight> <rule>")
				break
			}
			w, err := strconv.ParseFloat(parts[2], 64)
			if err != nil {
				fmt.Fprintf(out, "bad weight: %v\n", err)
				break
			}
			if err := engine.AddRule(parts[1], parts[3], w); err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
			} else {
				fmt.Fprintln(out, "rule added")
			}
		case line == ".trace":
			if last == nil {
				fmt.Fprintln(out, "no previous result")
				break
			}
			for _, tr := range last.Trace {
				fmt.Fprintf(out, "  w=%.2f %-24s answers=%d matches=%v rules=%v\n     %s\n",
					tr.Weight, tr.Status, tr.Answers, tr.PatternMatches, tr.Rules, tr.Query)
			}
		case strings.HasPrefix(line, ".watch "):
			// Progressive output: provisional answers print the moment
			// the incremental processor admits them into its top-k,
			// before the final ranking is known.
			qtext := strings.TrimSpace(strings.TrimPrefix(line, ".watch"))
			res, err := engine.QueryStream(context.Background(), qtext, func(ev trinit.AnswerEvent) error {
				if ev.Type == trinit.EventProvisional {
					fmt.Fprintf(out, "  ~ %-50s score %.4f\n", bindingsLine(ev.Answer.Bindings), ev.Answer.Score)
				}
				return nil
			})
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				break
			}
			fmt.Fprintln(out, "final ranking:")
			last = res
			printResult(out, res)
		case strings.HasPrefix(line, ".ask "):
			question := strings.TrimSpace(strings.TrimPrefix(line, ".ask"))
			res, translated, err := engine.Ask(question)
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				break
			}
			fmt.Fprintf(out, "translated: %s\n", translated)
			last = res
			printResult(out, res)
		case strings.HasPrefix(line, ".save "):
			// .tnt keeps the line-oriented text format; any other path gets
			// the checksummed binary segment snapshot (see .load).
			path := strings.TrimSpace(strings.TrimPrefix(line, ".save"))
			var err error
			if strings.HasSuffix(path, ".tnt") {
				err = engine.SaveFile(path)
			} else {
				err = engine.SaveSnapshot(path)
			}
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
			} else {
				fmt.Fprintf(out, "saved XKG and rules to %s\n", path)
			}
		case strings.HasPrefix(line, ".load "):
			path := strings.TrimSpace(strings.TrimPrefix(line, ".load"))
			e, err := trinit.LoadSnapshot(path, nil)
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				break
			}
			engine, last = e, nil
			s := engine.Stats()
			residency := ""
			if ms := engine.MemoryStats(); ms.Mapped {
				residency = fmt.Sprintf(", served zero-copy from a %d-byte mapping", ms.MappedBytes)
			}
			fmt.Fprintf(out, "loaded snapshot %s: %d triples (%d KG, %d XKG), %d rules%s\n",
				path, s.Triples, s.KGTriples, s.XKGTriples, s.Rules, residency)
		case strings.HasPrefix(line, ".complete "):
			prefix := strings.TrimSpace(strings.TrimPrefix(line, ".complete"))
			for _, c := range engine.Complete(prefix, 10) {
				fmt.Fprintf(out, "  %s\n", c.Text)
			}
		case strings.HasPrefix(line, ".explain "):
			if last == nil {
				fmt.Fprintln(out, "no previous result")
				break
			}
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, ".explain")))
			if err != nil || n < 1 || n > len(last.Answers) {
				fmt.Fprintf(out, "usage: .explain <1..%d>\n", len(last.Answers))
				break
			}
			fmt.Fprint(out, last.Answers[n-1].Explanation.Text)
		case strings.HasPrefix(line, "."):
			fmt.Fprintln(out, "unknown command; try .help")
		default:
			res, err := engine.QueryContext(context.Background(), line)
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				break
			}
			last = res
			printResult(out, res)
		}
		fmt.Fprint(out, "trinit> ")
	}
}

// bindingsLine renders bindings with sorted variable names, so output
// is deterministic across runs (map iteration order is not).
func bindingsLine(b map[string]string) string {
	vars := make([]string, 0, len(b))
	for v := range b {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = fmt.Sprintf("?%s = %s", v, b[v])
	}
	return strings.Join(parts, ", ")
}

func printResult(out io.Writer, res *trinit.Result) {
	if res.Partial {
		fmt.Fprintln(out, "(partial result: the query was cut short before completion)")
	}
	for _, n := range res.Notices {
		fmt.Fprintf(out, "note: %s\n", n.Message)
	}
	for _, s := range res.Suggestions {
		fmt.Fprintf(out, "suggestion: replace '%s' (%s) with %s (overlap %.2f)\n",
			s.Token, s.Position, s.Resource, s.Overlap)
	}
	if len(res.Answers) == 0 {
		fmt.Fprintln(out, "no answers")
		return
	}
	for i, a := range res.Answers {
		fmt.Fprintf(out, "%2d. %-50s score %.4f\n", i+1, bindingsLine(a.Bindings), a.Score)
	}
	fmt.Fprintf(out, "(%d rewrites considered, %d evaluated, %d accesses, %d join branches, %d hash probes, %d semi-join drops, %d blocks emitted, %d block rows filtered, %d index entries scanned, %d token resolutions, %d scan fallbacks; .explain <n> for provenance)\n",
		res.Metrics.RewritesTotal, res.Metrics.RewritesEvaluated, res.Metrics.SortedAccesses,
		res.Metrics.JoinBranches, res.Metrics.HashProbes, res.Metrics.SemiJoinDropped,
		res.Metrics.BlocksEmitted, res.Metrics.BlockRowsFiltered,
		res.Metrics.IndexScanned, res.Metrics.TokenResolutions, res.Metrics.ScanFallbacks)
}
