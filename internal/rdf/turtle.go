package rdf

import (
	"fmt"
	"io"
	"strings"
	"unicode"
)

// ParseTurtle reads a Turtle document: @prefix declarations, prefixed
// names, the 'a' shorthand for rdf:type, predicate lists (';'), object
// lists (','), and the literal forms of N-Triples plus bare integers,
// decimals, and booleans. This is the subset real-world dataset dumps
// use; blank-node property lists and collections are not supported.
func ParseTurtle(r io.Reader) ([]Triple, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	p := &turtleParser{src: string(data), prefixes: map[string]string{}}
	return p.parse()
}

type turtleParser struct {
	src      string
	i        int
	prefixes map[string]string
	out      []Triple
}

func (p *turtleParser) errf(format string, args ...any) error {
	line := 1 + strings.Count(p.src[:min(p.i, len(p.src))], "\n")
	return fmt.Errorf("turtle: line %d: %s", line, fmt.Sprintf(format, args...))
}

func (p *turtleParser) parse() ([]Triple, error) {
	for {
		p.skipWS()
		if p.done() {
			return p.out, nil
		}
		if p.peekWord("@prefix") || p.peekWord("PREFIX") {
			if err := p.prefixDecl(); err != nil {
				return nil, err
			}
			continue
		}
		if p.peekWord("@base") || p.peekWord("BASE") {
			return nil, p.errf("@base is not supported; use absolute IRIs")
		}
		if err := p.triples(); err != nil {
			return nil, err
		}
	}
}

func (p *turtleParser) done() bool { return p.i >= len(p.src) }

func (p *turtleParser) skipWS() {
	for !p.done() {
		c := p.src[p.i]
		if c == '#' {
			for !p.done() && p.src[p.i] != '\n' {
				p.i++
			}
			continue
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			p.i++
			continue
		}
		return
	}
}

func (p *turtleParser) peekWord(w string) bool {
	return strings.HasPrefix(p.src[p.i:], w)
}

func (p *turtleParser) prefixDecl() error {
	if p.peekWord("@prefix") {
		p.i += len("@prefix")
	} else {
		p.i += len("PREFIX")
	}
	p.skipWS()
	// label:
	start := p.i
	for !p.done() && p.src[p.i] != ':' {
		p.i++
	}
	if p.done() {
		return p.errf("malformed prefix declaration")
	}
	label := strings.TrimSpace(p.src[start:p.i])
	p.i++ // ':'
	p.skipWS()
	iri, err := p.iriRef()
	if err != nil {
		return err
	}
	p.prefixes[label] = iri.Value
	p.skipWS()
	if !p.done() && p.src[p.i] == '.' {
		p.i++
	}
	return nil
}

// triples parses: subject predicateObjectList '.'
func (p *turtleParser) triples() error {
	subj, err := p.term(false)
	if err != nil {
		return err
	}
	for {
		p.skipWS()
		var pred Term
		if !p.done() && p.src[p.i] == 'a' && p.i+1 < len(p.src) && isTurtleWS(p.src[p.i+1]) {
			p.i++
			pred = NewIRI(RDFType)
		} else {
			pred, err = p.term(false)
			if err != nil {
				return err
			}
			if !pred.IsIRI() {
				return p.errf("predicate must be an IRI, got %s", pred)
			}
		}
		// objectList
		for {
			p.skipWS()
			obj, err := p.term(true)
			if err != nil {
				return err
			}
			tr := Triple{S: subj, P: pred, O: obj}
			if !tr.Valid() {
				return p.errf("invalid triple %s", tr)
			}
			p.out = append(p.out, tr)
			p.skipWS()
			if !p.done() && p.src[p.i] == ',' {
				p.i++
				continue
			}
			break
		}
		p.skipWS()
		if !p.done() && p.src[p.i] == ';' {
			p.i++
			p.skipWS()
			// Tolerate dangling ';' before '.'.
			if !p.done() && p.src[p.i] == '.' {
				p.i++
				return nil
			}
			continue
		}
		if !p.done() && p.src[p.i] == '.' {
			p.i++
			return nil
		}
		return p.errf("expected ';', ',' or '.' after object")
	}
}

func isTurtleWS(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// term parses an IRI, prefixed name, blank node, or (when allowLiteral)
// a literal.
func (p *turtleParser) term(allowLiteral bool) (Term, error) {
	p.skipWS()
	if p.done() {
		return Term{}, p.errf("unexpected end of input")
	}
	c := p.src[p.i]
	switch {
	case c == '<':
		return p.iriRef()
	case c == '_':
		return p.blankNode()
	case c == '"' || c == '\'':
		if !allowLiteral {
			return Term{}, p.errf("literal not allowed here")
		}
		return p.literal()
	case allowLiteral && (c == '+' || c == '-' || c >= '0' && c <= '9'):
		return p.numericLiteral()
	case allowLiteral && (p.peekWord("true") || p.peekWord("false")):
		return p.booleanLiteral()
	default:
		return p.prefixedName()
	}
}

func (p *turtleParser) iriRef() (Term, error) {
	if p.src[p.i] != '<' {
		return Term{}, p.errf("expected '<'")
	}
	p.i++
	j := strings.IndexByte(p.src[p.i:], '>')
	if j < 0 {
		return Term{}, p.errf("unterminated IRI")
	}
	iri := p.src[p.i : p.i+j]
	p.i += j + 1
	if iri == "" {
		return Term{}, p.errf("empty IRI")
	}
	return NewIRI(iri), nil
}

func (p *turtleParser) blankNode() (Term, error) {
	if !strings.HasPrefix(p.src[p.i:], "_:") {
		return Term{}, p.errf("malformed blank node")
	}
	p.i += 2
	start := p.i
	for !p.done() && (isNameChar(rune(p.src[p.i]))) {
		p.i++
	}
	label := p.src[start:p.i]
	if label == "" {
		return Term{}, p.errf("empty blank node label")
	}
	return NewBlank(label), nil
}

func isNameChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}

func (p *turtleParser) prefixedName() (Term, error) {
	start := p.i
	for !p.done() && p.src[p.i] != ':' && !isTurtleWS(p.src[p.i]) {
		p.i++
	}
	if p.done() || p.src[p.i] != ':' {
		return Term{}, p.errf("expected prefixed name near %q", p.src[start:min(start+12, len(p.src))])
	}
	label := p.src[start:p.i]
	p.i++ // ':'
	localStart := p.i
	for !p.done() {
		r := rune(p.src[p.i])
		if isNameChar(r) {
			p.i++
			continue
		}
		// Dots are allowed inside local names, not at the end.
		if r == '.' && p.i+1 < len(p.src) && isNameChar(rune(p.src[p.i+1])) {
			p.i++
			continue
		}
		break
	}
	local := p.src[localStart:p.i]
	ns, ok := p.prefixes[label]
	if !ok {
		return Term{}, p.errf("undefined prefix %q", label)
	}
	return NewIRI(ns + local), nil
}

func (p *turtleParser) literal() (Term, error) {
	quote := p.src[p.i]
	p.i++
	var b strings.Builder
	for {
		if p.done() {
			return Term{}, p.errf("unterminated literal")
		}
		c := p.src[p.i]
		if c == quote {
			p.i++
			break
		}
		if c == '\\' {
			p.i++
			if p.done() {
				return Term{}, p.errf("dangling escape")
			}
			switch p.src[p.i] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '"':
				b.WriteByte('"')
			case '\'':
				b.WriteByte('\'')
			case '\\':
				b.WriteByte('\\')
			default:
				return Term{}, p.errf("unsupported escape \\%c", p.src[p.i])
			}
			p.i++
			continue
		}
		b.WriteByte(c)
		p.i++
	}
	lex := b.String()
	if !p.done() && p.src[p.i] == '@' {
		p.i++
		start := p.i
		for !p.done() && (isNameChar(rune(p.src[p.i]))) {
			p.i++
		}
		lang := p.src[start:p.i]
		if lang == "" {
			return Term{}, p.errf("empty language tag")
		}
		return NewLangLiteral(lex, lang), nil
	}
	if strings.HasPrefix(p.src[p.i:], "^^") {
		p.i += 2
		p.skipWS()
		var dt Term
		var err error
		if !p.done() && p.src[p.i] == '<' {
			dt, err = p.iriRef()
		} else {
			dt, err = p.prefixedName()
		}
		if err != nil {
			return Term{}, err
		}
		return NewTypedLiteral(lex, dt.Value), nil
	}
	return NewLiteral(lex), nil
}

func (p *turtleParser) numericLiteral() (Term, error) {
	start := p.i
	if p.src[p.i] == '+' || p.src[p.i] == '-' {
		p.i++
	}
	seenDot := false
	for !p.done() {
		c := p.src[p.i]
		if c >= '0' && c <= '9' {
			p.i++
			continue
		}
		if c == '.' && !seenDot && p.i+1 < len(p.src) && p.src[p.i+1] >= '0' && p.src[p.i+1] <= '9' {
			seenDot = true
			p.i++
			continue
		}
		break
	}
	lex := p.src[start:p.i]
	if lex == "" || lex == "+" || lex == "-" {
		return Term{}, p.errf("malformed number")
	}
	if seenDot {
		return NewTypedLiteral(lex, XSDDouble), nil
	}
	return NewTypedLiteral(lex, XSDInteger), nil
}

func (p *turtleParser) booleanLiteral() (Term, error) {
	if p.peekWord("true") {
		p.i += 4
		return NewTypedLiteral("true", XSDBoolean), nil
	}
	p.i += 5
	return NewTypedLiteral("false", XSDBoolean), nil
}
