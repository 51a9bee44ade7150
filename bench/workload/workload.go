// Package workload generates the benchmark's four request mixes. Every
// sequence — query order, the unbound-pattern slots, ingest batches, the
// open-loop schedules — is a pure function of the seed and the corpus
// entity lists, so one seed reproduces a run byte for byte and the system
// under test receives nothing but the generated requests.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"trinit"
)

// The workload names are permanent: committed baselines are keyed by them.
const (
	PointWarm    = "point-warm"
	TokenExplore = "token-explore"
	WideJoin     = "wide-join"
	IngestMixed  = "ingest-mixed"
)

// Names lists the workloads in reporting order.
var Names = []string{PointWarm, TokenExplore, WideJoin, IngestMixed}

const (
	queryPath  = "/api/query"
	streamPath = "/api/query/stream"

	// UnboundEvery makes every 20th token-explore request an unbound token
	// pattern: the long-list case that decides that workload's tail.
	UnboundEvery = 20
	// OracleEvery is the 1-in-16 sample of token-explore requests whose
	// answers are compared with the exhaustive oracle. Offset 3 makes the
	// sample meet the unbound slots (index 99 is both), offset 0 never would.
	OracleEvery  = 16
	oracleOffset = 3

	// BatchFacts is the size of one ingest batch: 32 new people, each with
	// one curated affiliation fact and one extracted 'worked at' fact.
	BatchFacts = 64

	// tokenSequence is the length of the generated token-explore sequence:
	// several times the corpus's distinct token patterns, so the match-list
	// cache sees the full spread, and more than warm-up plus a 15 s window
	// send, so a run does not wrap (wrapping only repeats the sequence).
	tokenSequence = 6000
)

// Frozen open-loop rates. They were calibrated once on the 2-core
// reference host (see bench/README.md) and are part of the workload
// definition: changing one starts a new baseline.
const (
	// TokenExploreRate is ≈30 % of token-explore's measured closed-loop
	// throughput with two clients, in requests per second.
	TokenExploreRate = 150.0
	// IngestBatchRate is the writer's schedule in batches per second: fast
	// enough for several compaction cycles per window, slow enough that the
	// host is not saturated — at 12 the reader gets only what the writer
	// leaves, and a host 10 % slower costs it 25 % of its throughput.
	IngestBatchRate = 8.0
)

// Entities is what the generator may know about the corpus: the names it
// can put into queries. All slices must be in a deterministic order.
type Entities struct {
	// PointQueries is the paper-shaped 70-query set (dataset.World.Workload).
	PointQueries []string
	// Universities, Winners (prize winners) and Cities span the whole
	// world; token-explore draws over all of them.
	Universities, Winners, Cities []string
	// JoinCities and Leagues are the cities hosting, and leagues holding,
	// at least one university with affiliates: targets of join queries
	// that have answers.
	JoinCities, Leagues []string
}

// Request is one HTTP query against the server.
type Request struct {
	Path  string
	Query string
	// Oracle marks requests whose ranked answers are compared with the
	// exhaustive oracle; the rest are checked for status and completeness.
	Oracle bool
}

// Spec is one generated workload.
type Spec struct {
	Name string
	// Requests is the query sequence. Closed-loop clients cycle it
	// (client c of n sends requests c, c+n, …); the open loop sends it in
	// order at Rate.
	Requests []Request
	// Clients is the closed-loop client count; 0 selects the open loop.
	Clients int
	// Rate is the open-loop arrival rate in requests per second, sent at
	// fixed spacing so that lateness is the generator's, not the draw's.
	Rate float64
	// BatchRate is the ingest writer's open-loop schedule in batches per
	// second; 0 means the workload has no writer during the window.
	BatchRate float64
	// Options opens the engine for this workload (zero = defaults).
	Options trinit.Options
	seed    int64
}

// Due returns the offset from the window start at which open-loop event i
// of a schedule at rate per second is due.
func Due(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

var unboundPatterns = []string{
	"?x 'worked at' ?u",
	"?x 'was born in' ?c",
	"?x 'lectured at' ?u",
}

// Generate builds the named workload from the seed.
func Generate(name string, seed int64, e Entities) (Spec, error) {
	rng := rand.New(rand.NewSource(seed))
	s := Spec{Name: name, seed: seed}
	switch name {
	case PointWarm:
		s.Clients = 2
		s.Requests = shuffled(rng, oracleRequests(queryPath, e.PointQueries))
	case TokenExplore:
		s.Rate = TokenExploreRate
		// The pattern spread of the corpus (≈1700 distinct match lists at
		// the benchmark's scale) must exceed the match-list cache, or this
		// workload would measure the same warm path as point-warm.
		s.Options = trinit.Options{MatchCacheSize: 1024}
		s.Requests = tokenRequests(rng, e)
	case WideJoin:
		s.Clients = 1
		s.Options = trinit.Options{MaxRelaxationDepth: 3, MaxRewrites: 256}
		s.Requests = shuffled(rng, oracleRequests(streamPath, joinQueries(e)))
	case IngestMixed:
		s.Clients = 1
		s.BatchRate = IngestBatchRate
		// 512 rows/s against a 2048-row threshold: a background compaction
		// (Checkpoint: fold, segment write, remap) every 4 s, four a window.
		s.Options = trinit.Options{CompactAfter: 2048}
		// Reads are checked for status and completeness only: their
		// answers legitimately change with every published version.
		for _, q := range e.PointQueries {
			s.Requests = append(s.Requests, Request{Path: queryPath, Query: q})
		}
		s.Requests = shuffled(rng, s.Requests)
	default:
		return Spec{}, fmt.Errorf("workload: unknown workload %q (want one of %v)", name, Names)
	}
	if len(s.Requests) == 0 {
		return Spec{}, fmt.Errorf("workload: %s: corpus has no entities to query", name)
	}
	return s, nil
}

func oracleRequests(path string, queries []string) []Request {
	out := make([]Request, len(queries))
	for i, q := range queries {
		out[i] = Request{Path: path, Query: q, Oracle: true}
	}
	return out
}

func shuffled(rng *rand.Rand, reqs []Request) []Request {
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// joinQueries is wide-join's fixed query set: the two-pattern city and
// league joins and the three-pattern worst case, over at most 40 targets.
func joinQueries(e Entities) []string {
	cities := e.JoinCities
	if len(cities) > 40 {
		cities = cities[:40]
	}
	var out []string
	for _, c := range cities {
		out = append(out,
			fmt.Sprintf("SELECT ?x WHERE { ?x affiliation ?u . ?u locatedIn %s }", c),
			fmt.Sprintf("?x ?p ?y . ?y locatedIn %s . ?x affiliation ?u", c))
	}
	for _, l := range e.Leagues {
		out = append(out, fmt.Sprintf("SELECT ?x WHERE { ?x affiliation ?u . ?u member %s }", l))
	}
	return out
}

// tokenRequests draws token-phrase queries over every university, prize
// winner and city of the world, with an unbound pattern in every
// UnboundEvery-th slot.
func tokenRequests(rng *rand.Rand, e Entities) []Request {
	if len(e.Universities) == 0 || len(e.Winners) == 0 || len(e.Cities) == 0 {
		return nil
	}
	out := make([]Request, tokenSequence)
	for i := range out {
		// The kinds rotate, so every seed sends the same mix of cheap and
		// expensive shapes; the seed draws the entities.
		var q string
		switch {
		case i%UnboundEvery == UnboundEvery-1:
			q = unboundPatterns[i/UnboundEvery%len(unboundPatterns)]
		default:
			switch i % 3 {
			case 0:
				q = fmt.Sprintf("?x 'worked at' %s", e.Universities[rng.Intn(len(e.Universities))])
			case 1:
				q = fmt.Sprintf("%s 'won prize for' ?f", e.Winners[rng.Intn(len(e.Winners))])
			default:
				q = fmt.Sprintf("?x 'worked at' ?u . ?u locatedIn %s", e.Cities[rng.Intn(len(e.Cities))])
			}
		}
		out[i] = Request{Path: queryPath, Query: q, Oracle: i%OracleEvery == oracleOffset}
	}
	return out
}

// Batch returns ingest batch i: BatchFacts facts about people no other
// batch (and no corpus document) mentions, so every fact is new and every
// acknowledged batch applies in full. It depends only on the seed, i and
// the university list, never on how many batches a run ends up sending.
func (s Spec) Batch(i int, universities []string) []trinit.Fact {
	rng := rand.New(rand.NewSource(s.seed<<20 + int64(i)))
	facts := make([]trinit.Fact, 0, BatchFacts)
	for j := 0; j < BatchFacts/2; j++ {
		person := IngestPerson(s.seed, i, j)
		uni := universities[rng.Intn(len(universities))]
		facts = append(facts,
			trinit.Fact{Subject: person, Predicate: "affiliation", Object: uni},
			trinit.Fact{
				Subject: person, Predicate: "worked at", Object: uni, XKG: true,
				Confidence: 0.5 + 0.4*rng.Float64(),
				Doc:        fmt.Sprintf("ingest-%d-%d", s.seed, i),
				Sentence:   fmt.Sprintf("%s worked at %s.", person, uni),
			})
	}
	return facts
}

// IngestPerson names person j of ingest batch i.
func IngestPerson(seed int64, i, j int) string {
	return fmt.Sprintf("BenchHire%dB%dP%d", seed, i, j)
}
