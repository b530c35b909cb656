// Package rdf implements the RDF data model used throughout Sapphire:
// terms (IRIs, literals, blank nodes), triples, vocabulary constants, an
// N-Triples writer (Term.String), and one streaming reader for RDF text,
// Turtle and N-Triples alike. It owns the term grammar: the reader and
// the SPARQL lexer read IRIs, quoted strings, language tags and numbers
// through its scanners (ScanIRI, ScanString, ScanLangTag, ScanNumber).
// Only absolute IRIs read; bare numbers read with or without an
// exponent, decimals typed xsd:decimal and doubles xsd:double.
//
// The representation is deliberately compact: a Term is a small value type
// so that triples can be stored and compared cheaply in the in-memory
// store and streamed through the SPARQL evaluator without allocation-heavy
// boxing.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
)

// TermKind discriminates the three kinds of RDF terms plus the zero value.
type TermKind uint8

const (
	// KindInvalid is the zero TermKind; it marks an unset Term.
	KindInvalid TermKind = iota
	// KindIRI is an IRI reference such as <http://dbpedia.org/resource/Berlin>.
	KindIRI
	// KindLiteral is an RDF literal, optionally tagged with a language or
	// a datatype IRI.
	KindLiteral
	// KindBlank is a blank node with a document-scoped label.
	KindBlank
)

// String returns a human-readable name for the kind.
func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "iri"
	case KindLiteral:
		return "literal"
	case KindBlank:
		return "blank"
	default:
		return "invalid"
	}
}

// Term is a single RDF term. The zero value is invalid and can be used as
// a sentinel. Terms are comparable with ==; two terms are equal iff their
// kind and all lexical components are equal.
type Term struct {
	// Value holds the IRI string, the literal lexical form, or the blank
	// node label depending on Kind.
	Value string
	// Lang is the language tag for language-tagged literals ("en", "de").
	// Empty for plain and datatyped literals and for non-literals.
	Lang string
	// Datatype is the datatype IRI for typed literals. Empty implies
	// xsd:string semantics for literals.
	Datatype string
	// Kind discriminates the term.
	Kind TermKind
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// NewLiteral returns a plain literal with no language tag or datatype.
func NewLiteral(lex string) Term { return Term{Kind: KindLiteral, Value: lex} }

// NewLangLiteral returns a language-tagged literal such as "Berlin"@en.
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: KindLiteral, Value: lex, Lang: lang}
}

// NewTypedLiteral returns a literal tagged with a datatype IRI such as
// "42"^^xsd:integer.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: KindLiteral, Value: lex, Datatype: datatype}
}

// NewBlank returns a blank node with the given label (without the "_:"
// prefix).
func NewBlank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == KindIRI }

// IsLiteral reports whether the term is a literal of any flavor.
func (t Term) IsLiteral() bool { return t.Kind == KindLiteral }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == KindBlank }

// IsZero reports whether the term is the invalid zero value.
func (t Term) IsZero() bool { return t.Kind == KindInvalid }

// String renders the term in N-Triples syntax. Invalid terms render as
// "<invalid>".
func (t Term) String() string {
	var b strings.Builder
	t.StringTo(&b)
	return b.String()
}

// StringTo appends the N-Triples rendering of the term to b, producing
// exactly the bytes of String without the intermediate allocations. Hot
// paths that build composite keys from several terms use it.
func (t Term) StringTo(b *strings.Builder) {
	switch t.Kind {
	case KindIRI:
		b.WriteByte('<')
		b.WriteString(t.Value)
		b.WriteByte('>')
	case KindLiteral:
		quoteLiteralTo(b, t.Value)
		if t.Lang != "" {
			b.WriteByte('@')
			b.WriteString(t.Lang)
		} else if t.Datatype != "" {
			b.WriteString("^^<")
			b.WriteString(t.Datatype)
			b.WriteByte('>')
		}
	case KindBlank:
		b.WriteString("_:")
		b.WriteString(t.Value)
	default:
		b.WriteString("<invalid>")
	}
}

// Compare orders terms lexicographically by (kind, value, lang, datatype).
// The order is total and stable, used for deterministic result ordering.
// It returns -1, 0, or +1.
func (t Term) Compare(u Term) int {
	return t.CompareTo(&u)
}

// CompareTo is Compare without copying either operand — the k-way merge
// in the store compares cached terms on every step, where the two
// 56-byte value copies of the value-receiver form dominate the compare
// itself. Neither operand is modified.
func (t *Term) CompareTo(u *Term) int {
	if t.Kind != u.Kind {
		if t.Kind < u.Kind {
			return -1
		}
		return 1
	}
	if c := strings.Compare(t.Value, u.Value); c != 0 {
		return c
	}
	if c := strings.Compare(t.Lang, u.Lang); c != 0 {
		return c
	}
	return strings.Compare(t.Datatype, u.Datatype)
}

// NumericValue returns the literal's lexical form as a float64 when it
// parses as one, which is the single definition of "numeric literal":
// SPARQL ORDER BY ranks two such literals by value instead of by term
// order, and the store's rank labels mark exactly these terms. The
// first-byte gate keeps ParseFloat (and the error it allocates on
// failure) off ordinary strings; 'i', 'I', 'n' and 'N' pass it because
// ParseFloat accepts "Inf", "infinity" and "NaN" spellings. Out-of-range
// forms such as "1e400" are not numeric.
func (t *Term) NumericValue() (float64, bool) {
	if t.Kind != KindLiteral || len(t.Value) == 0 {
		return 0, false
	}
	switch c := t.Value[0]; {
	case c >= '0' && c <= '9', c == '+', c == '-', c == '.',
		c == 'i', c == 'I', c == 'n', c == 'N':
	default:
		return 0, false
	}
	f, err := strconv.ParseFloat(t.Value, 64)
	return f, err == nil
}

// quoteLiteralTo escapes a literal lexical form per N-Triples rules,
// appending to b.
func quoteLiteralTo(b *strings.Builder, s string) {
	b.Grow(len(s) + 2)
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
}

// Triple is a single RDF statement. Subjects are IRIs or blank nodes,
// predicates are IRIs, and objects may be any term. The store enforces
// these positional constraints on insert.
type Triple struct {
	S, P, O Term
}

// NewTriple is a convenience constructor.
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple in N-Triples syntax (without the trailing
// newline).
func (tr Triple) String() string {
	return fmt.Sprintf("%s %s %s .", tr.S, tr.P, tr.O)
}

// Valid reports whether the triple satisfies RDF positional constraints.
func (tr Triple) Valid() bool {
	if !(tr.S.IsIRI() || tr.S.IsBlank()) {
		return false
	}
	if !tr.P.IsIRI() {
		return false
	}
	return !tr.O.IsZero()
}
