package topk

// This file implements the join kernel — the only one: every rewrite,
// single-pattern ones included, is enumerated here.
//
// The in-flight join frontier is a batch of prefix bindings in columnar
// form: one []rdf.TermID column per variable slot of the rewrite's
// varPlan plus a parallel running-probability column. Each join depth
// extends the whole block in one pass — probing the hash buckets of the
// pattern's list per prefix (join.go), evaluating the score bound over
// the candidate column (score.BoundedExtend) and appending surviving
// (prefix × candidate) rows into a reusable output block. Only rows that
// survive to full depth are projected back into the map-based Answer
// representation, through recordBinding.
//
// Enumeration order: output rows are appended in (input row, candidate)
// order and a full output block is flushed — extended depth-first
// through all remaining depths — before later input rows are processed,
// so complete bindings materialise in depth-first order, the canonical
// order whose first derivation wins an exact score tie (state.record).
//
// Pruning: a candidate is cut when its score bound — the realised
// score's own left-to-right fold with every later factor replaced by its
// depth's head probability — is strictly below the top-k threshold. The
// bound is >= every completion's score bit for bit, and the threshold
// is the k-th score already recorded, so a cut branch can neither enter
// the top k nor tie its k-th score; incremental and exhaustive mode
// rank byte-identically. The threshold is read at block boundaries, not
// per tuple: a flush may have recorded answers that tightened it, and a
// staler threshold only prunes less.

import (
	"trinit/internal/faultinject"
	"trinit/internal/rdf"
	"trinit/internal/score"
	"trinit/internal/store"
)

// maxBlockRows caps the rows of one frontier block. Full blocks are
// flushed — extended through the remaining depths — before enumeration
// continues, bounding memory at O(depth × maxBlockRows × slots) while
// preserving depth-first enumeration order.
const maxBlockRows = 1024

// joinBlock is one frontier of partially-joined prefixes in columnar
// form. slots[s][row] is the binding of variable slot s (rdf.NoTerm =
// unbound), acc[row] the running probability of the prefix, and
// trip[d][row] / prob[d][row] the triple chosen at join depth d and its
// emission probability — kept per depth so a completed row can fill the
// answer's per-pattern derivation without re-deriving it.
type joinBlock struct {
	slots [][]rdf.TermID
	acc   []float64
	trip  [][]store.ID
	prob  [][]float64
	rows  int
}

// reset shapes the block for a rewrite with nslots variable slots and
// ndepth join depths, keeping the column buffers for reuse.
func (b *joinBlock) reset(nslots, ndepth int) {
	for len(b.slots) < nslots {
		b.slots = append(b.slots, nil)
	}
	b.slots = b.slots[:nslots]
	for len(b.trip) < ndepth {
		b.trip = append(b.trip, nil)
	}
	b.trip = b.trip[:ndepth]
	for len(b.prob) < ndepth {
		b.prob = append(b.prob, nil)
	}
	b.prob = b.prob[:ndepth]
	b.resetRows()
}

// resetRows empties the block, keeping column capacity.
func (b *joinBlock) resetRows() {
	for i := range b.slots {
		b.slots[i] = b.slots[i][:0]
	}
	for i := range b.trip {
		b.trip[i] = b.trip[i][:0]
	}
	for i := range b.prob {
		b.prob[i] = b.prob[i][:0]
	}
	b.acc = b.acc[:0]
	b.rows = 0
}

// blockJoin runs the block-at-a-time kernel over the prepared join env:
// it seeds the depth-0 frontier with the single all-unbound prefix and
// extends it depth by depth. All blocks and accumulator columns live in
// the run's scratch and are reused across rewrites.
func (r *run) blockJoin(e *joinEnv) {
	sc := &r.sc
	n := e.n
	for len(sc.blocks) < n+1 {
		sc.blocks = append(sc.blocks, &joinBlock{})
	}
	for len(sc.accBufs) < n {
		sc.accBufs = append(sc.accBufs, nil)
	}
	nslots := len(e.vp.names)
	// Deeper blocks are shaped lazily, at blockExtend entry: most
	// rewrites never fill more than a couple of frontiers, and resetting
	// every depth upfront showed up on small-join profiles.
	seed := sc.blocks[0]
	seed.reset(nslots, n)
	for s := 0; s < nslots; s++ {
		seed.slots[s] = append(seed.slots[s], rdf.NoTerm)
	}
	seed.acc = append(seed.acc, 1)
	seed.rows = 1
	r.blockExtend(e, 0)
}

// blockExtend extends the depth-d frontier block by the d-th pattern of
// the join order, writing surviving rows into the depth-d+1 block and
// flushing it — recursing through the remaining depths — whenever it
// fills. At full depth the block is materialised into answers.
func (r *run) blockExtend(e *joinEnv, d int) {
	if r.canceled || r.exhausted {
		return
	}
	if d == e.n {
		r.blockMaterialise(e)
		return
	}
	sc := &r.sc
	in := sc.blocks[d]
	out := sc.blocks[d+1]
	out.reset(len(e.vp.names), e.n)
	pi := e.order[d]
	pl := e.lists[pi]
	slots := e.vp.pats[pi]
	nslots := len(e.vp.names)
	var aliveList []bool
	if e.alive != nil {
		aliveList = e.alive[pi]
	}
	incremental := r.opts.Mode == Incremental
	// thLimit is the block-level score bound: 0 in exhaustive mode (a
	// non-negative bound never goes below it, so BoundedExtend scans the
	// full candidate list), the top-k threshold in incremental mode. It is refreshed at block boundaries — a flush may have
	// recorded answers that tightened it — not per tuple; a staler
	// threshold only prunes less.
	var thLimit float64
	// thRemote marks that the captured bound was driven by a remote
	// shard's broadcast rather than local answers, attributing this
	// block's tail cuts to cross-shard pruning.
	var thRemote bool
	if incremental {
		thRemote = e.state.remoteAhead()
		thLimit = e.state.threshold()
	}

	// flush extends the filled output block through the remaining
	// depths, then empties it for the next batch of rows. A whole
	// block's worth of rows is charged against the cancellation poll
	// interval in one step: block boundaries are the kernel's
	// cancellation points. After the recursion the channel is polled
	// again unconditionally — materialisation may have run emit
	// callbacks (streaming consumers cancel from inside them), and a
	// trailing flush is the last work of a rewrite, so the cancel must
	// not wait out the tick budget.
	flush := func() bool {
		e.m.BlocksEmitted++
		faultinject.Fire(faultinject.SiteBlockFlush, "")
		if r.pollCancelEvery(out.rows) {
			return false
		}
		r.blockExtend(e, d+1)
		if r.pollCancel() {
			return false
		}
		out.resetRows()
		if incremental {
			thRemote = e.state.remoteAhead()
			thLimit = e.state.threshold()
		}
		return true
	}

	// Probe memoisation: consecutive rows of a depth-first frontier
	// often agree on the pattern's bound slots, so the candidate bucket
	// is re-derived (and HashProbes counted) only when the bound-slot
	// key changes from the previous row.
	var prevKey [3]rdf.TermID
	havePrev := false
	var cand []int32
	probe := false

	for row := 0; row < in.rows; row++ {
		acc := in.acc[row]
		var key [3]rdf.TermID
		for vi := range slots {
			key[vi] = in.slots[slots[vi]][row]
		}
		if !havePrev || key != prevKey {
			prevKey, havePrev = key, true
			cand, probe = nil, false
			for vi := range slots {
				if t := key[vi]; t != rdf.NoTerm {
					bkt := pl.buckets[vi][t]
					if !probe || len(bkt) < len(cand) {
						cand, probe = bkt, true
					}
				}
			}
			if probe {
				e.m.HashProbes++
			}
		}
		if probe && len(cand) == 0 {
			continue
		}
		var scan []int32
		total := len(pl.matches)
		if probe {
			scan = cand
			total = len(cand)
		}
		// Branch-free score pass over the candidate list: one output
		// probability per candidate up to the bound cut.
		accBuf, consumed := score.BoundedExtend(pl.matches, scan, acc, e.rw.Weight, e.heads[d+1:], thLimit, sc.accBufs[d][:0])
		sc.accBufs[d] = accBuf
		if consumed < total {
			// The cut point: every remaining candidate has lower
			// probability, so the whole tail is below the bound.
			e.m.PrunedBranches++
			e.m.BlockRowsFiltered += total - consumed
			if thRemote {
				e.m.CrossShardPrunes++
			}
		}
		for j := 0; j < consumed; j++ {
			p := j
			if probe {
				p = int(cand[j])
			}
			if aliveList != nil && !aliveList[p] {
				continue
			}
			match := &pl.matches[p]
			e.m.SortedAccesses++
			e.m.JoinBranches++
			ok := true
			for bi, s := range slots {
				if cur := in.slots[s][row]; cur != rdf.NoTerm && cur != match.Bindings[bi].Term {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			orow := out.rows
			for s := 0; s < nslots; s++ {
				out.slots[s] = append(out.slots[s], in.slots[s][row])
			}
			for bi, s := range slots {
				out.slots[s][orow] = match.Bindings[bi].Term
			}
			for d2 := 0; d2 < d; d2++ {
				out.trip[d2] = append(out.trip[d2], in.trip[d2][row])
				out.prob[d2] = append(out.prob[d2], in.prob[d2][row])
			}
			out.trip[d] = append(out.trip[d], match.Triple)
			out.prob[d] = append(out.prob[d], match.Prob)
			out.acc = append(out.acc, accBuf[j])
			out.rows++
			if out.rows == maxBlockRows {
				if !flush() {
					return
				}
			}
		}
	}
	if out.rows > 0 {
		flush()
	}
}

// blockMaterialise projects the full-depth frontier back into answers:
// each row is gathered into the run's flat binding array, filtered, and
// handed to recordBinding with the score W·acc — the fold the score
// bound in BoundedExtend mirrors.
func (r *run) blockMaterialise(e *joinEnv) {
	sc := &r.sc
	b := sc.blocks[e.n]
	for row := 0; row < b.rows; row++ {
		for s := range sc.vals {
			sc.vals[s] = b.slots[s][row]
		}
		if !r.passFilters(e, sc.vals) {
			continue
		}
		for d := 0; d < e.n; d++ {
			sc.triples[e.order[d]] = b.trip[d][row]
			sc.probs[e.order[d]] = b.prob[d][row]
		}
		r.recordBinding(e, e.rw.Weight*b.acc[row], sc.vals, sc.triples, sc.probs)
	}
}
