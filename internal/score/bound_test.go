package score

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestBoundedExtendKeepsTiedBranch is the deterministic regression for
// the bound/score association: the realised score of a branch is
// W·(acc·prob), and a bound folded as (W·acc)·prob can land one ulp
// below it. With W = 20/23 that happens for 254 of the 1444 pairs
// acc, prob ∈ {1/2 … 1/39}. The threshold is set to the branch's own
// realised score, so the branch ties the k-th score and must survive the
// strict cut — at the last join depth and one depth above it.
func TestBoundedExtendKeepsTiedBranch(t *testing.T) {
	w := 20.0 / 23
	mismatched := 0
	for i := 2; i <= 39; i++ {
		for j := 2; j <= 39; j++ {
			acc, prob := 1/float64(i), 1/float64(j)
			ms := []Match{{Prob: prob}}
			score := w * (acc * prob)
			if (w*acc)*prob < score {
				mismatched++
			}
			col, n := BoundedExtend(ms, nil, acc, w, nil, score, nil)
			if n != 1 || col[0] != acc*prob {
				t.Fatalf("acc=1/%d prob=1/%d: branch scoring exactly the threshold %v was cut", i, j, score)
			}
			h := 1 / float64(i+j)
			deeper := w * ((acc * prob) * h)
			if _, n := BoundedExtend(ms, nil, acc, w, []float64{h}, deeper, nil); n != 1 {
				t.Fatalf("acc=1/%d prob=1/%d head=1/%d: branch tying the threshold %v was cut", i, j, i+j, deeper)
			}
		}
	}
	if mismatched != 254 {
		t.Fatalf("%d pairs with (W·acc)·prob < W·(acc·prob), want 254: the grid no longer exercises the mismatch", mismatched)
	}
}

// TestBoundNeverBelowCompletionScore is the bound's property test: for
// random weights, probability columns and join orders of up to four
// patterns, the bound BoundedExtend cuts on at every depth is >= the
// realised score of every completion it guards, compared as float bits
// (for non-negative floats bit order is numeric order, with no
// tolerance to hide a one-ulp shortfall).
func TestBoundNeverBelowCompletionScore(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	prob := func() float64 {
		if rng.Intn(2) == 0 {
			return 1 / float64(1+rng.Intn(60)) // a normalised uniform list
		}
		return rng.Float64()
	}
	for round := 0; round < 20000; round++ {
		n := 1 + rng.Intn(4)
		w := prob()
		// cols[i] is pattern i's descending probability column.
		cols := make([][]Match, n)
		for i := range cols {
			cols[i] = make([]Match, 1+rng.Intn(4))
			for c := range cols[i] {
				cols[i][c].Prob = prob()
			}
			sort.Slice(cols[i], func(a, b int) bool { return cols[i][a].Prob > cols[i][b].Prob })
		}
		order := rng.Perm(n)
		heads := make([]float64, n)
		for d, pi := range order {
			heads[d] = cols[pi][0].Prob
		}
		// One completion: a random candidate per depth, its prefix
		// products accumulated exactly as the kernel accumulates them.
		pick := make([]int, n)
		accs := make([]float64, n+1)
		accs[0] = 1
		for d, pi := range order {
			pick[d] = rng.Intn(len(cols[pi]))
			accs[d+1] = accs[d] * cols[pi][pick[d]].Prob
		}
		score := w * accs[n]
		for d, pi := range order {
			b := bound(w, accs[d]*cols[pi][pick[d]].Prob, heads[d+1:])
			if math.Float64bits(b) < math.Float64bits(score) {
				t.Fatalf("round %d depth %d: bound %v below completion score %v", round, d, b, score)
			}
			if _, consumed := BoundedExtend(cols[pi], nil, accs[d], w, heads[d+1:], score, nil); consumed <= pick[d] {
				t.Fatalf("round %d depth %d: cut at %d before the completion's candidate %d", round, d, consumed, pick[d])
			}
		}
	}
}
