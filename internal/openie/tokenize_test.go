package openie

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// tokenizeWordsRunes and splitSentencesRunes are tokenizeWords and
// SplitSentences as first written, copying rune by rune into a builder:
// the references the slicing versions must match.
func tokenizeWordsRunes(s string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9':
			cur.WriteRune(r)
		case r == '-' || r == '\'':
			if cur.Len() > 0 {
				cur.WriteRune(r)
			}
		default:
			flush()
		}
	}
	flush()
	for i, w := range out {
		out[i] = strings.TrimRight(w, "-'")
	}
	return out
}

func splitSentencesRunes(text string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		s := strings.TrimSpace(cur.String())
		if s != "" {
			out = append(out, s)
		}
		cur.Reset()
	}
	runes := []rune(text)
	for i := 0; i < len(runes); i++ {
		r := runes[i]
		cur.WriteRune(r)
		if r == '!' || r == '?' {
			flush()
			continue
		}
		if r == '.' {
			if isAbbreviationBefore(runes, i) {
				continue
			}
			j := i + 1
			for j < len(runes) && runes[j] == ' ' {
				j++
			}
			if j < len(runes) && runes[j] >= 'a' && runes[j] <= 'z' {
				continue
			}
			flush()
		}
	}
	flush()
	return out
}

// TestTokenizeAndSplitMatchReference checks tokenizeWords and
// SplitSentences against their rune-copying references over random
// strings mixing words, abbreviations, hyphens, apostrophes, sentence
// punctuation, whitespace, non-ASCII letters, U+FFFD and invalid UTF-8.
func TestTokenizeAndSplitMatchReference(t *testing.T) {
	alphabet := []string{"Einstein", "won", "a", "Prof", "e", "g", "M", "-", "'", ".", ". ", "!", "?", " ", "\t", "\n", "3", "É", "ß", "�", "\xff", "\xc3"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.Intn(16); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		s := b.String()
		if got, want := tokenizeWords(s), tokenizeWordsRunes(s); !slices.Equal(got, want) {
			t.Fatalf("tokenizeWords(%q) = %q, want %q", s, got, want)
		}
		if got, want := SplitSentences(s), splitSentencesRunes(s); !slices.Equal(got, want) {
			t.Fatalf("SplitSentences(%q) = %q, want %q", s, got, want)
		}
	}
}
