package trinit

// Sharded-execution contract at the repo level, run with -race:
//
//   - the acceptance differential: on the full 70-query synthetic
//     workload, in both processing modes, every sharded run (N in
//     {1, 2, 3, 4} shards) ranks like the reference evaluator, and merges to a ranking byte-identical to
//     the unsharded serial run — bindings and exact score bits; at N=1
//     the whole answer set including derivations is reflect.DeepEqual to
//     the unsharded run's;
//   - the bound exchange demonstrably works: across the incremental
//     runs at N >= 2 the BoundBroadcast counter is positive, i.e. shards
//     really did exchange k-th-score bounds.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"trinit/internal/shard"
	"trinit/internal/topk"
)

// sameRanking asserts got and want agree as rankings: same length, and
// position by position the same binding maps and bit-identical scores.
// Derivations are exempt — a shard's winning derivation legitimately
// differs from the unsharded one (local triple IDs, local plans) as long
// as it achieves the exact same score.
func sameRanking(t *testing.T, label string, got, want []topk.Answer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, unsharded run has %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: answer %d score %v, unsharded %v", label, i, got[i].Score, want[i].Score)
		}
		if !reflect.DeepEqual(got[i].Bindings, want[i].Bindings) {
			t.Fatalf("%s: answer %d bindings %v, unsharded %v", label, i, got[i].Bindings, want[i].Bindings)
		}
	}
}

// TestShardDifferential is the sharding acceptance differential (the CI
// must-run gate): the complete synthetic workload in both modes, each
// run of N in {1, 2, 3, 4} shards checked against the reference
// evaluator and against the unsharded run.
func TestShardDifferential(t *testing.T) {
	inst := fullInstance()
	cases := workloadCases(t, world().Workload(70))

	// Unsharded answers once per (mode, query), from a warmed evaluator,
	// themselves checked against the reference.
	unsharded := make([][][]topk.Answer, len(kernelModes))
	for mi, km := range kernelModes {
		ev := topk.New(inst.Store, topk.Options{K: 10, Mode: km.mode})
		unsharded[mi] = make([][]topk.Answer, len(cases))
		for qi, c := range cases {
			ans, _, err := ev.Run(context.Background(), c.q, c.rewrites, topk.RunConfig{})
			if err != nil {
				t.Fatalf("unsharded %s [%s]: %v", c.id, km.name, err)
			}
			c.check(t, "[unsharded "+km.name+"]", ans)
			unsharded[mi][qi] = ans
		}
	}

	var broadcasts, crossPrunes int64
	for _, n := range []int{1, 2, 3, 4} {
		// One partition per N (partitioning is mode-independent), one
		// group per mode over it.
		stores, stats, err := shard.Partition(inst.Store, n, shard.PartitionOptions{})
		if err != nil {
			t.Fatalf("partition N=%d: %v", n, err)
		}
		if n == 1 && stats.Triples[0] != inst.Store.Len() {
			t.Fatalf("N=1 shard holds %d triples, source %d", stats.Triples[0], inst.Store.Len())
		}
		for mi, km := range kernelModes {
			g, err := shard.NewGroupFromStores(inst.Store, stores, stats.Replicated, topk.Options{K: 10, Mode: km.mode})
			if err != nil {
				t.Fatalf("group N=%d [%s]: %v", n, km.name, err)
			}
			for qi, c := range cases {
				label := fmt.Sprintf("%s [%s N=%d]", c.id, km.name, n)
				res, err := g.Run(context.Background(), c.q, c.rewrites, topk.RunConfig{})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				c.check(t, fmt.Sprintf("[%s N=%d]", km.name, n), res.Answers)
				sameRanking(t, label, res.Answers, unsharded[mi][qi])
				if n == 1 && !reflect.DeepEqual(res.Answers, unsharded[mi][qi]) {
					t.Fatalf("%s: answers not fully identical to the unsharded run (derivations included)\n got:  %+v\n want: %+v",
						label, res.Answers, unsharded[mi][qi])
				}
				if len(res.Shards) != len(res.Answers) {
					t.Fatalf("%s: %d shard attributions for %d answers", label, len(res.Shards), len(res.Answers))
				}
				if n >= 2 && km.mode == topk.Incremental {
					broadcasts += res.Broadcasts
					crossPrunes += int64(res.Metrics.CrossShardPrunes)
				}
			}
		}
	}
	if broadcasts == 0 {
		t.Fatal("no bound broadcasts across all incremental sharded runs: the bound exchange is dead")
	}
	if crossPrunes == 0 {
		t.Error("no cross-shard prunes recorded: broadcasts arrived but never cut work")
	}
}
