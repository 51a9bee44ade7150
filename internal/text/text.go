// Package text provides the text-processing primitives used across TriniT:
// tokenization and normalisation of phrases, stopword handling, token-set
// similarity for matching textual query tokens against XKG token phrases,
// and a prefix trie used for query auto-completion.
package text

import (
	"strings"
	"unicode"
)

// Tokenize splits s into lower-cased word tokens. Runs of letters or digits
// form tokens; everything else separates tokens. Camel-case resource names
// such as "AlbertEinstein" are split at case boundaries so that resources
// and token phrases become comparable ("albert", "einstein").
func Tokenize(s string) []string {
	var toks []string
	// A token is a contiguous run of s and is sliced out of it; ToLower
	// allocates only when the run has upper case.
	start := -1
	flush := func(end int) {
		if start >= 0 {
			toks = append(toks, strings.ToLower(s[start:end]))
			start = -1
		}
	}
	var prev rune
	for i, r := range s {
		switch {
		case unicode.IsLetter(r):
			// Split CamelCase: boundary when an upper-case letter
			// follows a lower-case letter or digit.
			if unicode.IsUpper(r) && (unicode.IsLower(prev) || unicode.IsDigit(prev)) {
				flush(i)
			}
			if start < 0 {
				start = i
			}
		case unicode.IsDigit(r):
			if unicode.IsLetter(prev) {
				flush(i)
			}
			if start < 0 {
				start = i
			}
		default:
			flush(i)
		}
		prev = r
	}
	flush(len(s))
	return toks
}

// stopwords is a small closed-class list. Stopwords are dropped when
// comparing phrases so that 'won a Nobel for' and 'won Nobel for' match.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true,
	"of": true, "in": true, "on": true, "at": true, "to": true, "for": true,
	"by": true, "with": true, "from": true, "as": true, "into": true,
	"is": true, "are": true, "was": true, "were": true, "be": true,
	"been": true, "being": true, "his": true, "her": true, "its": true,
	"their": true, "and": true, "or": true, "s": true,
}

// IsStopword reports whether the (lower-case) token is a stopword.
func IsStopword(tok string) bool { return stopwords[tok] }

// ContentTokens tokenizes s and removes stopwords. If every token is a
// stopword, the full token list is returned instead so that phrases such as
// 'of' never normalise to nothing.
func ContentTokens(s string) []string {
	all := Tokenize(s)
	n := 0
	for _, t := range all {
		if !stopwords[t] {
			n++
		}
	}
	if n == 0 || n == len(all) {
		return all
	}
	content := make([]string, 0, n)
	for _, t := range all {
		if !stopwords[t] {
			content = append(content, t)
		}
	}
	return content
}

// Normalize returns the canonical comparison form of a phrase: content
// tokens joined by single spaces.
func Normalize(s string) string { return strings.Join(ContentTokens(s), " ") }

// TokenSet is a set of normalised tokens.
type TokenSet map[string]bool

// NewTokenSet builds the content-token set of a phrase.
func NewTokenSet(s string) TokenSet {
	set := make(TokenSet)
	for _, t := range ContentTokens(s) {
		set[t] = true
	}
	return set
}

// Jaccard returns |a ∩ b| / |a ∪ b|, and 0 for two empty sets.
func Jaccard(a, b TokenSet) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := intersection(a, b)
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// intersection returns |a ∩ b|, probing the larger set with the members
// of the smaller one.
func intersection(a, b TokenSet) int {
	if len(b) < len(a) {
		a, b = b, a
	}
	n := 0
	for t := range a {
		if b[t] {
			n++
		}
	}
	return n
}

// Overlap returns |a ∩ b| / min(|a|, |b|), the overlap coefficient, and 0
// when either set is empty. It is more forgiving than Jaccard when one
// phrase is a sub-phrase of the other, which is the common case when a
// short query token must match a longer extracted phrase.
func Overlap(a, b TokenSet) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := intersection(a, b)
	min := len(a)
	if len(b) < min {
		min = len(b)
	}
	return float64(inter) / float64(min)
}

// Similarity is the phrase-match score used when a textual query token is
// matched against an XKG token phrase or a resource label: the mean of
// Jaccard and overlap coefficients. It is 1 for identical normalised
// phrases, and 0 for disjoint ones.
//
// Similarity tokenizes both sides on every call. Hot loops that compare
// one query phrase against many dictionary terms should build the token
// sets once and use SimilaritySets (or SimilarityToSet when only one side
// is precomputed); all three compute the identical score.
func Similarity(query, phrase string) float64 {
	return SimilaritySets(NewTokenSet(query), NewTokenSet(phrase))
}

// SimilaritySets is Similarity over precomputed token sets, for callers
// that hold both sides already normalised (e.g. the store's per-term sets
// built at Freeze against a pattern's per-slot query sets).
func SimilaritySets(a, b TokenSet) float64 {
	return (Jaccard(a, b) + Overlap(a, b)) / 2
}

// SimilarityToSet is Similarity with a precomputed query-side set, for
// loops that score one query phrase against many raw phrases.
func SimilarityToSet(query TokenSet, phrase string) float64 {
	return SimilaritySets(query, NewTokenSet(phrase))
}

// Stem reduces a token to a crude stem by suffix stripping, sufficient to
// relate morphological variants of relation words: advised/advisor →
// advis, lectured/lecturer → lectur, students/student → student. It is
// deliberately lighter than a full Porter stemmer.
func Stem(tok string) string {
	if len(tok) > 3 && strings.HasSuffix(tok, "s") && !strings.HasSuffix(tok, "ss") {
		tok = tok[:len(tok)-1]
	}
	switch {
	case len(tok) > 5 && strings.HasSuffix(tok, "ing"):
		tok = tok[:len(tok)-3]
	case len(tok) > 4 && strings.HasSuffix(tok, "ed"):
		tok = tok[:len(tok)-2]
	case len(tok) > 5 && (strings.HasSuffix(tok, "or") || strings.HasSuffix(tok, "er")):
		tok = tok[:len(tok)-2]
	}
	return tok
}

// stemSet builds the stemmed content-token set of a phrase.
func stemSet(s string) TokenSet {
	set := make(TokenSet)
	for _, t := range ContentTokens(s) {
		set[Stem(t)] = true
	}
	return set
}

// StemSimilarity is Similarity computed over stemmed tokens, relating
// phrases that share word stems: 'was advised by' ~ hasAdvisor.
func StemSimilarity(a, b string) float64 {
	sa, sb := stemSet(a), stemSet(b)
	return (Jaccard(sa, sb) + Overlap(sa, sb)) / 2
}
