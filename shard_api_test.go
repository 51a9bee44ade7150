package trinit

// Public-API contract of sharded execution: an Options.Shards engine
// answers every query identically to an unsharded engine over the same
// graph — bindings, scores, and explanations — and WithoutSharding is
// the in-API oracle; per-shard snapshots reload into working engines,
// with the 1-shard image byte-identical to SaveSnapshot's output; a
// durable directory written unsharded reopens sharded and vice versa.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// shardedTwin snapshots the shared synthetic engine and reloads it with
// n shards, so tests get a sharded engine over the identical graph and
// rule set without mutating the shared fixture.
func shardedTwin(t *testing.T, n int) (*Engine, []EvalQuery) {
	t.Helper()
	base, queries := syntheticWorkload(t)
	path := filepath.Join(t.TempDir(), "world.trnt")
	if err := base.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	e, err := LoadSnapshot(path, WithShards(n))
	if err != nil {
		t.Fatal(err)
	}
	return e, queries
}

func TestEngineShardedParity(t *testing.T) {
	base, queries := syntheticWorkload(t)
	sharded, _ := shardedTwin(t, 3)

	ss := sharded.ShardingStats()
	if ss.Shards != 3 || len(ss.Triples) != 3 || len(ss.Owned) != 3 {
		t.Fatalf("ShardingStats = %+v, want 3 shards", ss)
	}
	owned := 0
	for _, c := range ss.Owned {
		owned += c
	}
	if owned != base.Stats().Triples {
		t.Fatalf("owned triples sum to %d, store has %d", owned, base.Stats().Triples)
	}
	if ss.Skew < 1 {
		t.Fatalf("skew %v < 1", ss.Skew)
	}

	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	broadcasts := 0
	// Trace coverage accumulates across the workload: narrow queries may
	// run only on the shards, join-heavy ones only residually.
	seen := map[int]bool{}
	for _, wq := range queries {
		want, err := base.QueryContext(context.Background(), wq.Text)
		if err != nil {
			t.Fatalf("%s unsharded: %v", wq.ID, err)
		}
		got, err := sharded.QueryContext(context.Background(), wq.Text)
		if err != nil {
			t.Fatalf("%s sharded: %v", wq.ID, err)
		}
		// Answers — bindings, scores and rendered explanations — must
		// agree exactly; the explanation check is what proves each
		// derivation was resolved against its winning shard's store.
		if g, w := marshal(got.Answers), marshal(want.Answers); g != w {
			t.Fatalf("%s: sharded answers differ\n got:  %s\n want: %s", wq.ID, g, w)
		}
		if got.Shards != 3 {
			t.Errorf("%s: Result.Shards = %d, want 3", wq.ID, got.Shards)
		}
		if want.Shards != 0 {
			t.Errorf("%s: unsharded Result.Shards = %d, want 0", wq.ID, want.Shards)
		}
		// The trace carries every run's provenance, shard-major; index 3
		// (== Result.Shards) is the coordinator's residual run.
		for _, tr := range got.Trace {
			if tr.Shard < 0 || tr.Shard > 3 {
				t.Errorf("%s: trace names shard %d outside 0..3", wq.ID, tr.Shard)
			}
			seen[tr.Shard] = true
		}
		broadcasts += got.Metrics.BoundBroadcasts

		// WithoutSharding is the in-API oracle: full result equality
		// with a plain unsharded engine, derivations included.
		oracle, err := sharded.QueryContext(t.Context(), wq.Text, WithoutSharding())
		if err != nil {
			t.Fatalf("%s WithoutSharding: %v", wq.ID, err)
		}
		if oracle.Shards != 0 {
			t.Errorf("%s: WithoutSharding Result.Shards = %d, want 0", wq.ID, oracle.Shards)
		}
		if g, w := marshal(oracle.Answers), marshal(want.Answers); g != w {
			t.Fatalf("%s: WithoutSharding answers differ from unsharded engine", wq.ID)
		}

		// Lazy explanations resolve against the winning shard's store
		// exactly as eager ones do.
		lazy, err := sharded.QueryContext(t.Context(), wq.Text, WithoutExplanations())
		if err != nil {
			t.Fatalf("%s lazy: %v", wq.ID, err)
		}
		for i := range lazy.Answers {
			ex, err := lazy.Explain(i)
			if err != nil {
				t.Fatalf("%s: Explain(%d): %v", wq.ID, i, err)
			}
			if !reflect.DeepEqual(ex, got.Answers[i].Explanation) {
				t.Fatalf("%s: lazy explanation %d differs from eager", wq.ID, i)
			}
		}
	}
	if broadcasts == 0 {
		t.Error("no bound broadcasts surfaced in Result.Metrics across the workload")
	}
	if !seen[0] || !seen[1] || !seen[2] {
		t.Errorf("workload traces never touched every shard: %v", seen)
	}
	if !seen[3] {
		t.Errorf("workload never exercised the residual run: %v", seen)
	}
	ss = sharded.ShardingStats()
	if ss.ShardedQueries == 0 || ss.BoundBroadcasts == 0 {
		t.Errorf("sharding counters did not advance: %+v", ss)
	}
}

func TestReshard(t *testing.T) {
	e, queries := shardedTwin(t, 1) // Shards=1: group stays off
	if e.ShardingStats().Shards != 0 {
		t.Fatalf("1-shard engine built a coordinator: %+v", e.ShardingStats())
	}
	want, err := e.QueryContext(context.Background(), queries[0].Text)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reshard(2); err != nil {
		t.Fatal(err)
	}
	if got := e.ShardingStats().Shards; got != 2 {
		t.Fatalf("after Reshard(2): %d shards", got)
	}
	got, err := e.QueryContext(context.Background(), queries[0].Text)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards != 2 || len(got.Answers) != len(want.Answers) {
		t.Fatalf("resharded query: Shards=%d, %d answers (want %d)", got.Shards, len(got.Answers), len(want.Answers))
	}
	for i := range got.Answers {
		if got.Answers[i].Score != want.Answers[i].Score ||
			!reflect.DeepEqual(got.Answers[i].Bindings, want.Answers[i].Bindings) {
			t.Fatalf("answer %d diverged after Reshard", i)
		}
	}
	if err := e.Reshard(1); err != nil {
		t.Fatal(err)
	}
	if e.ShardingStats().Shards != 0 {
		t.Fatal("Reshard(1) did not return to the single-store pipeline")
	}

	unfrozen := New(nil)
	if err := unfrozen.Reshard(2); err == nil {
		t.Fatal("Reshard on an unfrozen engine did not fail")
	}
}

func TestSaveShardSnapshots(t *testing.T) {
	base, queries := syntheticWorkload(t)
	dir := t.TempDir()

	// Unsharded: the single shard image is byte-identical to
	// SaveSnapshot's output.
	single := filepath.Join(dir, "full.trnt")
	if err := base.SaveSnapshot(single); err != nil {
		t.Fatal(err)
	}
	paths, err := base.SaveShardSnapshots(filepath.Join(dir, "unsharded"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("unsharded engine wrote %d shard snapshots", len(paths))
	}
	full, err := os.ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, got) {
		t.Fatalf("unsharded shard-000.trnt differs from SaveSnapshot output (%d vs %d bytes)", len(got), len(full))
	}

	// Sharded: one image per shard, each a standalone loadable engine
	// whose store size matches the coordinator's stats.
	sharded, _ := shardedTwin(t, 2)
	paths, err = sharded.SaveShardSnapshots(filepath.Join(dir, "sharded"))
	if err != nil {
		t.Fatal(err)
	}
	ss := sharded.ShardingStats()
	if len(paths) != 2 {
		t.Fatalf("2-shard engine wrote %d snapshots", len(paths))
	}
	for i, p := range paths {
		se, err := LoadSnapshot(p, nil)
		if err != nil {
			t.Fatalf("shard %d snapshot does not load: %v", i, err)
		}
		if se.Stats().Triples != ss.Triples[i] {
			t.Errorf("shard %d snapshot holds %d triples, stats say %d", i, se.Stats().Triples, ss.Triples[i])
		}
		if se.Stats().Rules != base.Stats().Rules {
			t.Errorf("shard %d snapshot carries %d rules, engine has %d", i, se.Stats().Rules, base.Stats().Rules)
		}
		if _, err := se.QueryContext(context.Background(), queries[0].Text); err != nil {
			t.Errorf("shard %d engine does not answer: %v", i, err)
		}
	}
}

func TestPersistOpenSharded(t *testing.T) {
	base, queries := syntheticWorkload(t)
	dir := t.TempDir()

	// A sharded engine persists the full store: the directory written by
	// an unsharded engine reopens sharded, answers unchanged.
	twin, _ := shardedTwin(t, 2)
	if err := twin.Persist(dir); err != nil {
		t.Fatal(err)
	}
	if err := twin.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint on a sharded engine: %v", err)
	}
	if err := twin.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, info, err := Open(dir, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if info.SnapshotEpoch != 2 {
		t.Fatalf("snapshot epoch %d after one checkpoint, want 2", info.SnapshotEpoch)
	}
	if got := reopened.ShardingStats().Shards; got != 3 {
		t.Fatalf("reopened engine has %d shards, want 3", got)
	}
	for _, wq := range queries[:5] {
		want, err := base.QueryContext(context.Background(), wq.Text)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reopened.QueryContext(context.Background(), wq.Text)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Answers) != len(want.Answers) {
			t.Fatalf("%s: %d answers after reopen, want %d", wq.ID, len(got.Answers), len(want.Answers))
		}
		for i := range got.Answers {
			if got.Answers[i].Score != want.Answers[i].Score ||
				!reflect.DeepEqual(got.Answers[i].Bindings, want.Answers[i].Bindings) {
				t.Fatalf("%s: answer %d diverged across persist/open", wq.ID, i)
			}
		}
	}
}
