// Package shard implements sharded query execution: a partitioner that
// splits a frozen store into N subject-hashed shards with predicate-aware
// replication, a coordinator that scatter-gathers per-shard incremental
// top-k runs, and the shared score-bound broadcast that lets shards prune
// against each other's progress.
//
// Everything runs in-process — the shards are ordinary stores sharing the
// source dictionary and provenance table — but the partitioning,
// bound-exchange and merge semantics are exactly those a network layer
// would need, and they are locked down by the byte-identical differential
// against the unsharded oracle (TestShardDifferential).
//
// Safety of the distributed bound rests on the threshold algorithm's
// tolerance for stale bounds. A shard's published k-th score can only
// rise towards its final local value, and every shard's final local k-th
// score is at most the global k-th score (each of its k local answers is
// a real answer whose global score is at least the local one). All
// pruning against the broadcast is strict (<), so a branch able to reach
// — or tie — the final global k-th score is never cut on the shard that
// owns its best derivation: a stale or forward bound prunes less or
// exactly right, never too much.
package shard

import (
	"math"
	"sync/atomic"
)

// BoundBroadcast is the shared k-th-score bound exchanged between shards,
// satisfying topk.SharedBound. Publish keeps the maximum
// score offered so far via a CAS loop; Load is a single atomic read on
// the join kernels' prune path. The zero value is ready to use and
// reports bound 0 (no shard has proven k answers yet).
type BoundBroadcast struct {
	bits atomic.Uint64
	// broadcasts counts Publish calls that raised the bound — the
	// messages a network layer would actually send.
	broadcasts atomic.Int64
}

// Publish offers a shard's current k-th best score. The broadcast keeps
// the maximum: a lower or equal offer is a no-op.
func (b *BoundBroadcast) Publish(score float64) {
	nb := math.Float64bits(score)
	for {
		cur := b.bits.Load()
		if math.Float64frombits(cur) >= score {
			return
		}
		if b.bits.CompareAndSwap(cur, nb) {
			b.broadcasts.Add(1)
			return
		}
	}
}

// Load returns the best k-th score any shard has published, or 0.
func (b *BoundBroadcast) Load() float64 {
	return math.Float64frombits(b.bits.Load())
}

// Broadcasts returns the number of bound-raising Publish calls.
func (b *BoundBroadcast) Broadcasts() int64 {
	return b.broadcasts.Load()
}
