// Package rdf defines the data model of the extended knowledge graph (XKG):
// terms, dictionary encoding, triples, and provenance records.
//
// The model follows the paper's extension of RDF: subjects, predicates and
// objects are terms, and a term is either a canonical resource (an entity,
// class, or relation of the curated KG), a literal value (string, number,
// date), or a textual token phrase produced by Open Information Extraction.
// Token phrases may appear in any of the S, P, O slots of an XKG triple.
package rdf

import "fmt"

// TermKind distinguishes the three kinds of terms that may occupy a slot of
// an XKG triple.
type TermKind uint8

const (
	// KindResource is a canonical KG resource such as AlbertEinstein or
	// bornIn. Resources are matched exactly by identity.
	KindResource TermKind = iota
	// KindLiteral is a literal value such as '1879-03-14'. Literals are
	// matched exactly by value.
	KindLiteral
	// KindToken is a textual token phrase extracted by Open IE, such as
	// 'won a Nobel for'. Token phrases are matched approximately, by
	// token-set similarity.
	KindToken
)

// String returns a short human-readable name for the kind.
func (k TermKind) String() string {
	switch k {
	case KindResource:
		return "resource"
	case KindLiteral:
		return "literal"
	case KindToken:
		return "token"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is a dictionary-decoded term: a kind together with its surface text.
type Term struct {
	Kind TermKind
	Text string
}

// Resource constructs a canonical-resource term.
func Resource(text string) Term { return Term{Kind: KindResource, Text: text} }

// Literal constructs a literal term.
func Literal(text string) Term { return Term{Kind: KindLiteral, Text: text} }

// Token constructs a textual token-phrase term.
func Token(text string) Term { return Term{Kind: KindToken, Text: text} }

// String renders the term in the paper's display convention: resources
// appear bare, literals and token phrases appear in single quotes.
// Embedded quotes and backslashes are backslash-escaped so that the
// rendering round-trips through the query parser.
func (t Term) String() string {
	if t.Kind == KindResource {
		return t.Text
	}
	return string(t.AppendTo(nil))
}

// AppendTo appends the term's String rendering to dst, for callers that
// render many terms into one reused buffer.
func (t Term) AppendTo(dst []byte) []byte {
	if t.Kind == KindResource {
		return append(dst, t.Text...)
	}
	dst = append(dst, '\'')
	for i := 0; i < len(t.Text); i++ {
		if c := t.Text[i]; c == '\\' || c == '\'' {
			dst = append(dst, '\\')
		}
		dst = append(dst, t.Text[i])
	}
	return append(dst, '\'')
}

// TermID is a dense dictionary identifier for a term. The zero value is
// reserved and never refers to a valid term.
type TermID uint32

// NoTerm is the invalid TermID. Dictionaries never assign it.
const NoTerm TermID = 0
