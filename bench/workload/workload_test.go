package workload

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func testEntities() Entities {
	e := Entities{}
	for i := 0; i < 7; i++ {
		e.PointQueries = append(e.PointQueries, fmt.Sprintf("?x bornIn Country%d", i))
		e.Universities = append(e.Universities, fmt.Sprintf("Uni%d", i))
		e.Winners = append(e.Winners, fmt.Sprintf("Winner%d", i))
		e.Cities = append(e.Cities, fmt.Sprintf("City%d", i))
	}
	e.JoinCities = e.Cities[:3]
	e.Leagues = []string{"LeagueA"}
	return e
}

// image serialises everything a run would send for the spec: the request
// sequence, the first ingest batches and the open-loop due times.
func image(t *testing.T, s Spec, e Entities) []byte {
	t.Helper()
	var due []int64
	for i := 0; i < 50; i++ {
		due = append(due, int64(Due(i, max(s.Rate, s.BatchRate, 1))))
	}
	data, err := json.Marshal(struct {
		Spec    Spec
		Batches [][]any
		Due     []int64
	}{s, batches(s, e), due})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func batches(s Spec, e Entities) [][]any {
	var out [][]any
	for i := 0; i < 3; i++ {
		var b []any
		for _, f := range s.Batch(i, e.Universities) {
			b = append(b, f)
		}
		out = append(out, b)
	}
	return out
}

func TestSameSeedSameBytesOtherSeedDiffers(t *testing.T) {
	e := testEntities()
	for _, name := range Names {
		a, err := Generate(name, 7, e)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(name, 7, e)
		c, _ := Generate(name, 8, e)
		if string(image(t, a, e)) != string(image(t, b, e)) {
			t.Errorf("%s: seed 7 generated two different workloads", name)
		}
		if string(image(t, a, e)) == string(image(t, c, e)) {
			t.Errorf("%s: seeds 7 and 8 generated the same workload", name)
		}
	}
}

func TestTokenExploreSlots(t *testing.T) {
	s, err := Generate(TokenExplore, 1, testEntities())
	if err != nil {
		t.Fatal(err)
	}
	if s.Clients != 0 || s.Rate != TokenExploreRate {
		t.Fatalf("token-explore must be open loop at the frozen rate, got clients %d rate %v", s.Clients, s.Rate)
	}
	unbound := map[string]bool{}
	for _, p := range unboundPatterns {
		unbound[p] = true
	}
	checkedUnbound := 0
	for i, r := range s.Requests {
		if got, want := unbound[r.Query], i%UnboundEvery == UnboundEvery-1; got != want {
			t.Fatalf("request %d %q: unbound = %v, want %v", i, r.Query, got, want)
		}
		if got, want := r.Oracle, i%OracleEvery == oracleOffset; got != want {
			t.Fatalf("request %d: oracle = %v, want %v", i, got, want)
		}
		if r.Oracle && unbound[r.Query] {
			checkedUnbound++
		}
	}
	if checkedUnbound == 0 {
		t.Error("the oracle sample never meets an unbound pattern")
	}
}

func TestBatchesAreNewPeopleAndIndependentOfCount(t *testing.T) {
	e := testEntities()
	s, _ := Generate(IngestMixed, 3, e)
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		b := s.Batch(i, e.Universities)
		if len(b) != BatchFacts {
			t.Fatalf("batch %d has %d facts, want %d", i, len(b), BatchFacts)
		}
		for j, f := range b {
			key := fmt.Sprint(f.Subject, f.Predicate, f.XKG)
			if seen[key] {
				t.Fatalf("batch %d fact %d repeats %s", i, j, key)
			}
			seen[key] = true
			if !strings.HasPrefix(f.Subject, "BenchHire3B") {
				t.Fatalf("batch %d fact %d: subject %q is not an ingest person of seed 3", i, j, f.Subject)
			}
			if f.XKG && (f.Confidence <= 0 || f.Confidence > 1 || f.Sentence == "") {
				t.Fatalf("batch %d fact %d: XKG fact without confidence or provenance: %+v", i, j, f)
			}
		}
	}
	if fmt.Sprint(s.Batch(5, e.Universities)) != fmt.Sprint(s.Batch(5, e.Universities)) {
		t.Error("Batch(5) is not a pure function of the seed and index")
	}
}

func TestGenerateRejectsUnknownAndEmpty(t *testing.T) {
	if _, err := Generate("point-cold", 1, testEntities()); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Generate(TokenExplore, 1, Entities{}); err == nil {
		t.Error("token-explore generated from an empty corpus")
	}
}
