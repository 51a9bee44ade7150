package text

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenize(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"won a Nobel for", []string{"won", "a", "nobel", "for"}},
		{"AlbertEinstein", []string{"albert", "einstein"}},
		{"PrincetonUniversity", []string{"princeton", "university"}},
		{"IAS", []string{"ias"}}, // all-caps acronym stays whole
		{"1879-03-14", []string{"1879", "03", "14"}},
		{"  spaces\tand\npunct!,. ", []string{"spaces", "and", "punct"}},
		{"", nil},
		{"won-Nobel_for", []string{"won", "nobel", "for"}},
		{"Yago2s", []string{"yago", "2s"}},
	}
	for _, tc := range tests {
		got := Tokenize(tc.in)
		if !equalStrings(got, tc.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestContentTokensDropsStopwords(t *testing.T) {
	got := ContentTokens("won a Nobel for")
	want := []string{"won", "nobel"}
	if !equalStrings(got, want) {
		t.Errorf("ContentTokens = %v, want %v", got, want)
	}
}

func TestContentTokensAllStopwordsFallsBack(t *testing.T) {
	got := ContentTokens("of the")
	want := []string{"of", "the"}
	if !equalStrings(got, want) {
		t.Errorf("ContentTokens(all-stopwords) = %v, want %v (full list)", got, want)
	}
}

func TestIsStopword(t *testing.T) {
	if !IsStopword("the") || IsStopword("nobel") {
		t.Error("stopword classification wrong for 'the'/'nobel'")
	}
}

func TestNormalize(t *testing.T) {
	if got := Normalize("won a Nobel for"); got != "won nobel" {
		t.Errorf("Normalize = %q, want %q", got, "won nobel")
	}
	if Normalize("Won NOBEL") != Normalize("won a nobel") {
		t.Error("normalisation must be case- and stopword-insensitive")
	}
}

func TestJaccard(t *testing.T) {
	a := NewTokenSet("won a Nobel for")
	b := NewTokenSet("won Nobel")
	if got := Jaccard(a, b); got != 1.0 {
		t.Errorf("Jaccard(identical content) = %v, want 1", got)
	}
	c := NewTokenSet("lectured at")
	if got := Jaccard(a, c); got != 0 {
		t.Errorf("Jaccard(disjoint) = %v, want 0", got)
	}
	if got := Jaccard(TokenSet{}, TokenSet{}); got != 0 {
		t.Errorf("Jaccard(empty, empty) = %v, want 0", got)
	}
}

func TestOverlapSubPhrase(t *testing.T) {
	long := NewTokenSet("discovery of the photoelectric effect")
	short := NewTokenSet("photoelectric effect")
	if got := Overlap(short, long); got != 1.0 {
		t.Errorf("Overlap(subphrase) = %v, want 1", got)
	}
	if got := Overlap(TokenSet{}, long); got != 0 {
		t.Errorf("Overlap(empty, x) = %v, want 0", got)
	}
}

func TestSimilarityRange(t *testing.T) {
	tests := []struct {
		q, p string
		want float64
		cmp  string // "eq", "gt0lt1"
	}{
		{"won nobel for", "won a Nobel for", 1.0, "eq"},
		{"won nobel", "lectured at", 0.0, "eq"},
		{"nobel", "won a Nobel for", 0, "gt0lt1"},
	}
	for _, tc := range tests {
		got := Similarity(tc.q, tc.p)
		switch tc.cmp {
		case "eq":
			if got != tc.want {
				t.Errorf("Similarity(%q, %q) = %v, want %v", tc.q, tc.p, got, tc.want)
			}
		case "gt0lt1":
			if got <= 0 || got >= 1 {
				t.Errorf("Similarity(%q, %q) = %v, want in (0,1)", tc.q, tc.p, got)
			}
		}
	}
}

// Property: Similarity is symmetric up to the asymmetry-free components and
// always in [0, 1]; identical strings score 1 (when they contain a token).
func TestSimilarityProperties(t *testing.T) {
	words := []string{"won", "nobel", "prize", "physics", "lectured", "at", "princeton", "einstein", "the", "of"}
	gen := rand.New(rand.NewSource(7))
	phrase := func() string {
		n := 1 + gen.Intn(4)
		var parts []string
		for i := 0; i < n; i++ {
			parts = append(parts, words[gen.Intn(len(words))])
		}
		return strings.Join(parts, " ")
	}
	for i := 0; i < 500; i++ {
		a, b := phrase(), phrase()
		s := Similarity(a, b)
		if s < 0 || s > 1 {
			t.Fatalf("Similarity(%q, %q) = %v out of [0,1]", a, b, s)
		}
		if got, rev := s, Similarity(b, a); got != rev {
			t.Fatalf("Similarity not symmetric: (%q,%q) %v vs %v", a, b, got, rev)
		}
		if self := Similarity(a, a); self != 1 {
			t.Fatalf("Similarity(%q, itself) = %v, want 1", a, self)
		}
	}
}

// tokenizeRunes is Tokenize as first written, copying each token rune by
// rune into a builder: the reference the slicing Tokenize must match.
func tokenizeRunes(s string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	var prev rune
	for _, r := range s {
		switch {
		case unicode.IsLetter(r):
			if unicode.IsUpper(r) && (unicode.IsLower(prev) || unicode.IsDigit(prev)) {
				flush()
			}
			cur.WriteRune(r)
		case unicode.IsDigit(r):
			if unicode.IsLetter(prev) {
				flush()
			}
			cur.WriteRune(r)
		default:
			flush()
		}
		prev = r
	}
	flush()
	return toks
}

// TestTokenizeMatchesRuneBuilder checks Tokenize against the rune-copying
// reference over random strings from an alphabet of ASCII and non-ASCII
// letters in every case (title case too), digits, separators, U+FFFD and
// invalid UTF-8 bytes.
func TestTokenizeMatchesRuneBuilder(t *testing.T) {
	alphabet := []string{"a", "Z", "q", "É", "é", "ß", "Σ", "σ", "ǅ", "7", "٣", " ", "-", ".", "_", "\ufffd", "\xff", "\xc3", "İ"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		s := b.String()
		if got, want := Tokenize(s), tokenizeRunes(s); !equalStrings(got, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", s, got, want)
		}
	}
}

// Property: Tokenize output is always lower-case and contains no separators.
func TestTokenizeProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" || strings.ToLower(tok) != tok {
				return false
			}
			if strings.ContainsAny(tok, " \t\n.,!?-_'\"") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTrieCompleteOrdersByWeight(t *testing.T) {
	tr := NewTrie()
	tr.Insert("AlbertEinstein", 1, 0.9)
	tr.Insert("AlbertCamus", 2, 0.5)
	tr.Insert("AlfredKleiner", 3, 0.7)
	tr.Insert("Ulm", 4, 0.3)

	got := tr.Complete("Al", 10)
	wantOrder := []string{"AlbertEinstein", "AlfredKleiner", "AlbertCamus"}
	if len(got) != 3 {
		t.Fatalf("Complete returned %d entries, want 3: %v", len(got), got)
	}
	for i, w := range wantOrder {
		if got[i].Text != w {
			t.Errorf("Complete[%d] = %q, want %q", i, got[i].Text, w)
		}
	}
}

func TestTrieCompleteCaseInsensitive(t *testing.T) {
	tr := NewTrie()
	tr.Insert("PrincetonUniversity", 1, 1)
	if got := tr.Complete("princetonuniv", 5); len(got) != 1 {
		t.Fatalf("case-insensitive Complete = %v, want 1 hit", got)
	}
	if got := tr.Complete("PRINCETON", 5); len(got) != 1 {
		t.Fatalf("upper-case prefix Complete = %v, want 1 hit", got)
	}
}

func TestTrieCompleteLimitAndMiss(t *testing.T) {
	tr := NewTrie()
	for i, s := range []string{"aa", "ab", "ac", "ad"} {
		tr.Insert(s, uint32(i), float64(i))
	}
	if got := tr.Complete("a", 2); len(got) != 2 {
		t.Fatalf("limit not applied: %v", got)
	}
	if got := tr.Complete("zz", 5); got != nil {
		t.Fatalf("miss should return nil, got %v", got)
	}
}

func TestTrieExactEntryIncluded(t *testing.T) {
	tr := NewTrie()
	tr.Insert("bornIn", 1, 1)
	got := tr.Complete("bornIn", 5)
	if len(got) != 1 || got[0].Payload != 1 {
		t.Fatalf("exact-match completion missing: %v", got)
	}
}

// Property: every completion returned actually has the query as a
// case-insensitive prefix, and weights are non-increasing.
func TestTrieProperty(t *testing.T) {
	gen := rand.New(rand.NewSource(11))
	alphabet := "abcDE"
	randStr := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[gen.Intn(len(alphabet))]
		}
		return string(b)
	}
	tr := NewTrie()
	inserted := make([]string, 0, 60)
	for i := 0; i < 60; i++ {
		s := randStr(1 + gen.Intn(6))
		tr.Insert(s, uint32(i), gen.Float64())
		inserted = append(inserted, s)
	}
	for i := 0; i < 200; i++ {
		prefix := randStr(1 + gen.Intn(3))
		got := tr.Complete(prefix, 0)
		for j, c := range got {
			if !strings.HasPrefix(strings.ToLower(c.Text), strings.ToLower(prefix)) {
				t.Fatalf("completion %q does not have prefix %q", c.Text, prefix)
			}
			if j > 0 && got[j-1].Weight < c.Weight {
				t.Fatalf("completions not sorted by weight: %v", got)
			}
		}
	}
	// Every inserted string must be findable via its own full text.
	for _, s := range inserted {
		found := false
		for _, c := range tr.Complete(s, 0) {
			if c.Text == s {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("inserted string %q not found by Complete", s)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestStem(t *testing.T) {
	tests := map[string]string{
		"advised":  "advis",
		"advisor":  "advis",
		"students": "student",
		"lectured": "lectur",
		"lecturer": "lectur",
		"working":  "work",
		"was":      "was", // too short to strip
		"class":    "class",
		"born":     "born",
	}
	for in, want := range tests {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemSimilarity(t *testing.T) {
	if got := StemSimilarity("was advised by", "hasAdvisor"); got <= 0 {
		t.Errorf("StemSimilarity(advised, advisor) = %v, want > 0", got)
	}
	if got := StemSimilarity("was born in", "bornIn"); got != 1 {
		// content stems: {born} vs {ha, born}? "has" is not a stopword
		// here; accept anything positive.
		if got <= 0 {
			t.Errorf("StemSimilarity(born) = %v", got)
		}
	}
	if got := StemSimilarity("jousted near", "bornIn"); got != 0 {
		t.Errorf("StemSimilarity(unrelated) = %v, want 0", got)
	}
}

// TestSimilaritySetVariantsAgree: the precomputed-set forms must compute
// the identical score as the string form, bit for bit, since the matcher
// relies on this to keep token-resolved and scan match lists byte-equal.
func TestSimilaritySetVariantsAgree(t *testing.T) {
	pairs := [][2]string{
		{"worked at", "lectured at Princeton"},
		{"won nobel for", "won Nobel for"},
		{"the of", "of"},
		{"", "anything"},
		{"AlbertEinstein", "albert einstein"},
		{"photoelectric effect", "discovery of the photoelectric effect"},
	}
	for _, p := range pairs {
		want := Similarity(p[0], p[1])
		a, b := NewTokenSet(p[0]), NewTokenSet(p[1])
		if got := SimilaritySets(a, b); got != want {
			t.Errorf("SimilaritySets(%q, %q) = %v, Similarity = %v", p[0], p[1], got, want)
		}
		if got := SimilarityToSet(a, p[1]); got != want {
			t.Errorf("SimilarityToSet(%q, %q) = %v, Similarity = %v", p[0], p[1], got, want)
		}
	}
}
