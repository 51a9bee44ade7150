// Package xkg builds the Extended Knowledge Graph of §2: it runs Open IE
// over a document collection, links argument phrases to KG entities where
// possible, and adds the resulting token triples — with confidences and
// provenance — to the triple store alongside the curated KG.
//
// Construction runs in two phases. The first splits, extracts and links
// every document independently, on runtime.GOMAXPROCS(0) workers; the
// second applies the corpus-level filters and adds the triples to the
// store sequentially in document order. The store's contents — term IDs,
// provenance IDs, triple order — therefore do not depend on the number of
// workers or their schedule.
package xkg

import (
	"runtime"
	"sync"
	"sync/atomic"

	"trinit/internal/ned"
	"trinit/internal/openie"
	"trinit/internal/rdf"
	"trinit/internal/store"
	"trinit/internal/text"
)

// Document is one input text with a stable identifier used for provenance.
type Document struct {
	ID   string
	Text string
}

// Options control XKG construction.
type Options struct {
	// MinConf drops extractions whose extractor confidence is below the
	// threshold. Zero keeps everything.
	MinConf float64
	// MinRelPairs applies ReVerb's lexical constraint: relation phrases
	// occurring with fewer distinct argument pairs are dropped. Values
	// below 2 disable the filter.
	MinRelPairs int
	// LinkEntities enables NED on the subject and object phrases. When
	// a phrase links, the slot holds the canonical entity resource (as
	// in the paper's example, where "Einstein" becomes AlbertEinstein);
	// otherwise it stays a token phrase.
	LinkEntities bool
}

// DefaultOptions are sensible defaults for synthetic corpora.
func DefaultOptions() Options {
	return Options{MinConf: 0.3, MinRelPairs: 1, LinkEntities: true}
}

// Stats reports what the pipeline did.
type Stats struct {
	Documents   int
	Sentences   int
	Extractions int // raw extractor output
	Kept        int // after confidence and lexical filters
	LinkedSubj  int // subject phrases linked to KG entities
	LinkedObj   int // object phrases linked to KG entities
	Added       int // distinct token triples added to the store
}

// extraction is one Open-IE extraction with the entities its subject and
// object phrases link to (rdf.NoTerm when unlinked).
type extraction struct {
	openie.Extraction
	subj, obj rdf.TermID
}

// document is phase 1's output for one document.
type document struct {
	sentences   int
	extractions []extraction
}

// Build extracts token triples from docs and adds them to st. The linker
// may be nil when Options.LinkEntities is false. Build must be called
// before the store is frozen.
//
// Phase 1 splits, extracts and links each document on its own, spread
// over runtime.GOMAXPROCS(0) workers: each sentence is tokenised once as
// the linking context of its extractions, and only extractions that pass
// MinConf are linked. The linker is only read and the store is not
// touched. Phase 2 is sequential and in document order: the MinRelPairs
// filter, provenance, dictionary interning and AddFact. Its output is
// therefore the same for every worker count; GOMAXPROCS=1 runs phase 1
// sequentially too.
func Build(st *store.Store, linker *ned.Linker, docs []Document, opts Options) Stats {
	if !opts.LinkEntities {
		linker = nil
	}
	parsed := make([]document, len(docs))
	forEachDoc(len(docs), func(i int) { parsed[i] = extract(docs[i].Text, linker, opts.MinConf) })

	stats := Stats{Documents: len(docs)}
	// The confidence filter, then the corpus-level lexical filter
	// (ReVerb's constraint: keep relation phrases with enough distinct
	// argument pairs).
	pairs := make(map[string]map[[2]string]bool)
	for _, d := range parsed {
		stats.Sentences += d.sentences
		stats.Extractions += len(d.extractions)
		for _, e := range d.extractions {
			if e.Conf < opts.MinConf {
				continue
			}
			if pairs[e.Rel] == nil {
				pairs[e.Rel] = make(map[[2]string]bool)
			}
			pairs[e.Rel][[2]string{e.Arg1, e.Arg2}] = true
		}
	}

	before := st.Len()
	for i, d := range parsed {
		for _, e := range d.extractions {
			if e.Conf < opts.MinConf || (opts.MinRelPairs > 1 && len(pairs[e.Rel]) < opts.MinRelPairs) {
				continue
			}
			stats.Kept++
			prov := st.Prov().Add(rdf.Prov{Doc: docs[i].ID, Sentence: e.Sentence})
			s := rdf.Token(e.Arg1)
			if e.subj != rdf.NoTerm {
				s = st.Dict().Term(e.subj)
				stats.LinkedSubj++
			}
			o := rdf.Token(e.Arg2)
			if e.obj != rdf.NoTerm {
				o = st.Dict().Term(e.obj)
				stats.LinkedObj++
			}
			st.AddFact(s, rdf.Token(e.Rel), o, rdf.SourceXKG, e.Conf, prov)
		}
	}
	stats.Added = st.Len() - before
	return stats
}

// extract is phase 1 for one document: split it into sentences, extract,
// and link the subject and object of every extraction that passes
// minConf against its sentence, tokenised once. linker may be nil.
func extract(doc string, linker *ned.Linker, minConf float64) document {
	sents := openie.SplitSentences(doc)
	d := document{sentences: len(sents)}
	for _, sent := range sents {
		var ctx text.TokenSet
		for _, e := range openie.ExtractSentence(sent) {
			x := extraction{Extraction: e}
			if linker != nil && e.Conf >= minConf {
				if ctx == nil {
					ctx = text.NewTokenSet(sent)
				}
				x.subj, _, _ = linker.LinkTokens(e.Arg1, ctx)
				x.obj, _, _ = linker.LinkTokens(e.Arg2, ctx)
			}
			d.extractions = append(d.extractions, x)
		}
	}
	return d
}

// forEachDoc calls fn(i) for every i in [0, n) on min(n,
// runtime.GOMAXPROCS(0)) goroutines and returns when all calls have.
func forEachDoc(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := min(runtime.GOMAXPROCS(0), n)
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
