package trinit

// Contract of the block-at-a-time join kernel, run with -race in CI:
//
//   - randomised fuzz: on randomly generated join queries the kernel
//     ranks like the reference evaluator in both incremental and
//     exhaustive mode;
//   - cancellation: a cancel raised from a streaming callback mid-join is
//     observed at a block boundary, drains the join, and surfaces a
//     Partial result with ErrCanceled.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"trinit/internal/query"
	"trinit/internal/score"
	"trinit/internal/topk"
)

// TestBlockKernelReferenceDifferentialFuzz generates random 1-3 pattern
// queries over the synthetic world's vocabulary (resources, literals and
// noisy textual tokens) and checks every kernel ranking against the
// reference evaluator.
func TestBlockKernelReferenceDifferentialFuzz(t *testing.T) {
	inst := fullInstance()
	v := newPatternVocab(inst.Store, 31)
	m := score.NewMatcher(inst.Store)
	evs := make([]*topk.Evaluator, len(kernelModes))
	for i, km := range kernelModes {
		evs[i] = topk.New(inst.Store, topk.Options{K: 10, Mode: km.mode})
	}
	for round := 0; round < 60; round++ {
		q := &query.Query{Patterns: []query.Pattern{v.pattern()}}
		for extra := v.rng.Intn(3); extra > 0; extra-- {
			q.Patterns = append(q.Patterns, v.pattern())
		}
		if len(q.ProjectedVars()) == 0 {
			continue // no variables, nothing to differentiate
		}
		c := newRefCase(fmt.Sprintf("round %d", round), m, inst.Rules, q)
		for i, km := range kernelModes {
			got, _, err := evs[i].Run(context.Background(), q, c.rewrites, topk.RunConfig{})
			if err != nil {
				t.Fatalf("round %d (%s): %v", round, km.name, err)
			}
			c.check(t, "["+km.name+"]", got)
		}
	}
}

// TestBlockKernelMidBlockCancellation cancels the request from inside
// the stream callback while the block kernel is mid-join on a
// multi-pattern query. The cancel lands between two block flushes; the
// kernel must observe it at the next block boundary, unwind across all
// join depths, and return the answers found so far as a partial result.
func TestBlockKernelMidBlockCancellation(t *testing.T) {
	e, _ := syntheticWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	provisional := 0
	res, err := e.QueryStream(ctx, "?x ?p ?y . ?y ?q ?z", func(ev AnswerEvent) error {
		if ev.Type == EventProvisional {
			provisional++
			cancel()
		}
		return nil
	}, WithMode(ModeExhaustive))
	if provisional == 0 {
		t.Fatal("no provisional event before cancellation")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("want a partial result after mid-block cancellation")
	}
	if res.Metrics.BlocksEmitted == 0 {
		t.Fatalf("BlocksEmitted = 0, want block execution before the cancel: %+v", res.Metrics)
	}
	canceledTraced := false
	for _, tr := range res.Trace {
		if tr.Status == "canceled" {
			canceledTraced = true
		}
	}
	if !canceledTraced {
		t.Fatalf("no trace entry with status canceled: %+v", res.Trace)
	}
}
