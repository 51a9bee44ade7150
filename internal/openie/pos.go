// Package openie implements a self-contained Open Information Extraction
// pipeline in the style of ReVerb (Fader et al., EMNLP 2011), the extractor
// family the paper uses to build the XKG (§2).
//
// The pipeline is: sentence segmentation → part-of-speech tagging (lexicon
// plus suffix heuristics) → noun-phrase chunking → relation-phrase
// extraction under ReVerb's syntactic constraint (the relation phrase must
// match V | V P | V W* P and lie between its two argument noun phrases) →
// confidence estimation from surface features.
//
// It replaces the ReVerb/OLLIE binaries the original system ran over
// ClueWeb'09; see DESIGN.md §2 for the substitution argument.
package openie

import "strings"

// Tag is a coarse part-of-speech tag.
type Tag uint8

// The tagset is deliberately coarse: it is just rich enough to express
// ReVerb's NP and relation-phrase patterns.
const (
	TagNoun Tag = iota
	TagPropNoun
	TagVerb
	TagAux // auxiliary/copula: is, was, has, ...
	TagDet
	TagAdj
	TagAdv
	TagPrep
	TagPron
	TagConj
	TagNum
	TagPunct
	TagOther
)

// String returns a short tag mnemonic.
func (t Tag) String() string {
	switch t {
	case TagNoun:
		return "N"
	case TagPropNoun:
		return "NP"
	case TagVerb:
		return "V"
	case TagAux:
		return "AUX"
	case TagDet:
		return "DET"
	case TagAdj:
		return "ADJ"
	case TagAdv:
		return "ADV"
	case TagPrep:
		return "P"
	case TagPron:
		return "PRON"
	case TagConj:
		return "CONJ"
	case TagNum:
		return "NUM"
	case TagPunct:
		return "PUNCT"
	default:
		return "O"
	}
}

// closed-class lexicons.
var (
	determiners  = wordSet("a an the this that these those his her its their my your our some any no every each")
	prepositions = wordSet("of in on at to for by with from as into about over under between through during against among within along across behind beyond near")
	pronouns     = wordSet("he she it they we you i him them us who whom which whose")
	conjunctions = wordSet("and or but nor so yet")
	auxiliaries  = wordSet("is are was were be been being am has have had do does did will would can could shall should may might must")
)

// verbLexicon lists common verb lemmas and irregular forms; inflected
// regular forms are recognised by suffix heuristics in TagWord.
var verbLexicon = wordSet(
	"win won receive received study studied work worked lecture lectured " +
		"found founded marry married bear born die died locate located house housed " +
		"graduate graduated discover discovered develop developed write wrote written " +
		"publish published meet met teach taught advise advised supervise supervised " +
		"join joined move moved visit visited lead led direct directed play played " +
		"give gave grow grew know knew make made take took hold held serve served " +
		"earn earned attend attended collaborate collaborated emigrate emigrated " +
		"invent invented propose proposed formulate formulated chair chaired head headed " +
		"mentor mentored succeed succeeded award awarded name named establish established " +
		"belong belonged reside resided settle settled immigrate immigrated travel traveled " +
		"honor honored honour honoured nominate nominated elect elected appoint appointed " +
		"become became begin began remain remained stay stayed spend spent")

// adjectiveLexicon lists adjectives that matter for NP chunking in the
// synthetic corpus; unknown words default to nouns, which chunk the same.
var adjectiveLexicon = wordSet("famous renowned great young old german american swiss eminent noted distinguished prestigious private public royal national theoretical")

func wordSet(s string) map[string]bool {
	m := make(map[string]bool)
	for _, w := range strings.Fields(s) {
		m[w] = true
	}
	return m
}

// TaggedToken is a surface token with its tag. Capital reports whether the
// original token was capitalised (used for proper-noun detection).
type TaggedToken struct {
	Text    string // original surface form
	Lower   string
	Tag     Tag
	Capital bool
}

// TagWord assigns a tag to a single word. first marks the first word of a
// sentence, where capitalisation is not evidence of a proper noun.
func TagWord(word string, first bool) Tag {
	lower := strings.ToLower(word)
	if isNumber(word) {
		return TagNum
	}
	switch {
	case determiners[lower]:
		return TagDet
	case prepositions[lower]:
		return TagPrep
	case pronouns[lower]:
		return TagPron
	case conjunctions[lower]:
		return TagConj
	case auxiliaries[lower]:
		return TagAux
	case verbLexicon[lower]:
		return TagVerb
	case adjectiveLexicon[lower]:
		return TagAdj
	}
	if isCapitalized(word) && !first {
		return TagPropNoun
	}
	// Suffix heuristics for open-class words.
	switch {
	case strings.HasSuffix(lower, "ly") && len(lower) > 4:
		return TagAdv
	case strings.HasSuffix(lower, "ing") && len(lower) > 5:
		return TagVerb
	case strings.HasSuffix(lower, "ed") && len(lower) > 4:
		return TagVerb
	}
	if isCapitalized(word) {
		// Sentence-initial capitalised unknown word: treat as proper
		// noun; corpus sentences routinely start with entity names.
		return TagPropNoun
	}
	return TagNoun
}

func isCapitalized(w string) bool {
	return len(w) > 0 && w[0] >= 'A' && w[0] <= 'Z'
}

func isNumber(w string) bool {
	if w == "" {
		return false
	}
	for i := 0; i < len(w); i++ {
		c := w[i]
		if (c < '0' || c > '9') && c != '-' && c != '.' && c != '/' {
			return false
		}
	}
	return w[0] >= '0' && w[0] <= '9'
}

// TagSentence tokenizes and tags one sentence.
func TagSentence(sentence string) []TaggedToken {
	words := tokenizeWords(sentence)
	out := make([]TaggedToken, len(words))
	for i, w := range words {
		tag := TagWord(w, i == 0)
		out[i] = TaggedToken{
			Text:    w,
			Lower:   strings.ToLower(w),
			Tag:     tag,
			Capital: isCapitalized(w),
		}
	}
	return out
}

// tokenizeWords splits a sentence into word tokens, keeping internal
// hyphens and apostrophes, dropping other punctuation.
func tokenizeWords(s string) []string {
	var out []string
	// A word is a contiguous run of s and is sliced out of it.
	start := -1
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9':
			if start < 0 {
				start = i
			}
		case r == '-' || r == '\'':
			// Kept inside a word, dropped before one.
		default:
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	// Trim trailing hyphens/apostrophes left by the permissive branch.
	for i, w := range out {
		out[i] = strings.TrimRight(w, "-'")
	}
	return out
}

// SplitSentences segments text into sentences at '.', '!' and '?', with a
// small abbreviation guard ("Prof.", "Dr.", initials).
func SplitSentences(text string) []string {
	var out []string
	runes := []rune(text)
	start := 0
	// flush ends the current sentence before runes[end].
	flush := func(end int) {
		if s := strings.TrimSpace(string(runes[start:end])); s != "" {
			out = append(out, s)
		}
		start = end
	}
	for i := 0; i < len(runes); i++ {
		r := runes[i]
		if r == '!' || r == '?' {
			flush(i + 1)
			continue
		}
		if r == '.' {
			if isAbbreviationBefore(runes, i) {
				continue
			}
			// A period followed by a lower-case letter is not a
			// sentence boundary (e.g. "e.g. something").
			j := i + 1
			for j < len(runes) && runes[j] == ' ' {
				j++
			}
			if j < len(runes) && runes[j] >= 'a' && runes[j] <= 'z' {
				continue
			}
			flush(i + 1)
		}
	}
	flush(len(runes))
	return out
}

var abbreviations = wordSet("prof dr mr mrs ms st etc vs inc jr sr univ dept fig al")

// isAbbreviationBefore reports whether the period at index i terminates a
// known abbreviation or a single-letter initial.
func isAbbreviationBefore(runes []rune, i int) bool {
	j := i - 1
	for j >= 0 && ((runes[j] >= 'a' && runes[j] <= 'z') || (runes[j] >= 'A' && runes[j] <= 'Z')) {
		j--
	}
	word := strings.ToLower(string(runes[j+1 : i]))
	if len(word) == 1 {
		return true // initial such as "M. Yahya"
	}
	return abbreviations[word]
}
