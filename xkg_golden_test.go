package trinit

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"trinit/internal/dataset"
	"trinit/internal/ned"
	"trinit/internal/relax"
	"trinit/internal/serial"
	"trinit/internal/store"
	"trinit/internal/xkg"
)

const xkgGolden = "testdata/xkg.golden"

// buildXKGCorpus builds the world's XKG and mines its rules the way the
// benchmark's set-up does: KG, Open IE + linking with the default
// options, Freeze, then the manual advisor rule plus mined inverse and
// composition rules.
func buildXKGCorpus(w *dataset.World) (*store.Store, xkg.Stats, []*relax.Rule) {
	st := store.New(nil, nil)
	w.PopulateKG(st)
	stats := xkg.Build(st, ned.NewLinker(st), w.Docs(), xkg.DefaultOptions())
	st.Freeze()
	rules := []*relax.Rule{
		relax.MustParseRule("advisor-inv", "?x hasAdvisor ?y => ?y hasStudent ?x", 1.0, "manual"),
	}
	mopts := relax.MiningOptions{MinSupport: 2, MinWeight: 0.1, IncludeInverse: true}
	rules = append(rules, relax.Mine(st, mopts)...)
	rules = append(rules, relax.MineCompositions(st, []string{"locatedIn", "partOf", "memberOf"}, mopts)...)
	return st, stats, rules
}

// renderXKG builds the XKG of the default and the benchmark world (scale
// 1) and renders, per world, the build's Stats and the size and SHA-256
// of the snapshot segment written from it: every term ID, provenance ID,
// triple, index order and rule shows up in the digest.
func renderXKG(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, c := range []struct {
		name string
		cfg  dataset.Config
	}{{"default", dataset.DefaultConfig()}, {"bench-1", dataset.BenchConfig()}} {
		st, stats, rules := buildXKGCorpus(dataset.Generate(c.cfg))
		var seg bytes.Buffer
		if err := serial.WriteSnapshot(&seg, st, rules, 1); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "## %s\n%+v\ntriples=%d rules=%d segment_bytes=%d sha256=%x\n",
			c.name, stats, st.Len(), len(rules), seg.Len(), sha256.Sum256(seg.Bytes()))
	}
	return b.Bytes()
}

// TestXKGGolden pins the XKG build byte for byte: the snapshot of each
// world must hash to testdata/xkg.golden at every core count, so the
// build's output cannot depend on how its workers are scheduled.
// Regenerate with go test -run TestXKGGolden -update.
func TestXKGGolden(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", p), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			checkGolden(t, xkgGolden, renderXKG(t))
		})
	}
}

// TestXKGBuildEngineParallel builds the synthetic engine (ExtendFromDocuments
// over the DefaultConfig corpus, Freeze, rule mining) and queries it at
// GOMAXPROCS 4, against the same engine built at GOMAXPROCS 1: stats and
// the answers to the 70-query workload must be identical. Under -race it
// covers the build's workers sharing the linker and the concurrent
// permutation sorts of Freeze.
func TestXKGBuildEngineParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	e, queries, err := NewSyntheticEngine(DefaultSyntheticConfig(), 70)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(1)
	ref, _, err := NewSyntheticEngine(DefaultSyntheticConfig(), 70)
	runtime.GOMAXPROCS(4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Stats(), ref.Stats(); got != want {
		t.Fatalf("stats at GOMAXPROCS 4 = %+v, at 1 = %+v", got, want)
	}
	for _, q := range queries {
		got, err := e.QueryContext(context.Background(), q.Text)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		want, err := ref.QueryContext(context.Background(), q.Text)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if g, w := renderMmap(t, got), renderMmap(t, want); g != w {
			t.Fatalf("%s: answers differ between the engines built at GOMAXPROCS 4 and 1\n got: %s\nwant: %s", q.ID, g, w)
		}
	}
}
