package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseError describes a syntax error in an N-Triples document.
type ParseError struct {
	Line int    // 1-based line number
	Msg  string // description of the problem
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d: %s", e.Line, e.Msg)
}

// Reader parses N-Triples documents line by line. It accepts the common
// subset of the W3C N-Triples grammar: IRIs in angle brackets, quoted
// literals with \-escapes, language tags, datatype IRIs, blank node
// labels, comments, and blank lines.
type Reader struct {
	sc   *bufio.Scanner
	line int
}

// NewReader returns a Reader consuming r.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	return &Reader{sc: sc}
}

// Read returns the next triple. It returns io.EOF after the last triple.
func (r *Reader) Read() (Triple, error) {
	for r.sc.Scan() {
		r.line++
		line := strings.TrimSpace(r.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		tr, err := parseTripleLine(line, r.line)
		if err != nil {
			return Triple{}, err
		}
		return tr, nil
	}
	if err := r.sc.Err(); err != nil {
		return Triple{}, err
	}
	return Triple{}, io.EOF
}

func parseTripleLine(line string, lineno int) (Triple, error) {
	p := &lineParser{s: line, line: lineno}
	s, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	pr, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	o, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	p.skipSpace()
	if !p.eat('.') {
		return Triple{}, p.errf("expected '.' terminator")
	}
	p.skipSpace()
	if !p.done() {
		return Triple{}, p.errf("trailing garbage after '.'")
	}
	tr := Triple{S: s, P: pr, O: o}
	if !tr.Valid() {
		return Triple{}, p.errf("invalid triple positions: %s", tr)
	}
	return tr, nil
}

// lineParser is a minimal recursive-descent scanner over one statement.
type lineParser struct {
	s    string
	i    int
	line int
}

func (p *lineParser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *lineParser) done() bool { return p.i >= len(p.s) }

func (p *lineParser) peek() byte {
	if p.done() {
		return 0
	}
	return p.s[p.i]
}

func (p *lineParser) eat(c byte) bool {
	if !p.done() && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *lineParser) skipSpace() {
	for !p.done() && (p.s[p.i] == ' ' || p.s[p.i] == '\t') {
		p.i++
	}
}

func (p *lineParser) term() (Term, error) {
	p.skipSpace()
	switch p.peek() {
	case '<':
		return p.iri()
	case '"':
		return p.literal()
	case '_':
		return p.blank()
	case 0:
		return Term{}, p.errf("unexpected end of statement")
	default:
		return Term{}, p.errf("unexpected character %q", p.s[p.i])
	}
}

func (p *lineParser) iri() (Term, error) {
	p.i++ // '<'
	start := p.i
	for !p.done() && p.s[p.i] != '>' {
		p.i++
	}
	if p.done() {
		return Term{}, p.errf("unterminated IRI")
	}
	iri := p.s[start:p.i]
	p.i++ // '>'
	if iri == "" {
		return Term{}, p.errf("empty IRI")
	}
	return NewIRI(iri), nil
}

func (p *lineParser) blank() (Term, error) {
	if p.i+1 >= len(p.s) || p.s[p.i+1] != ':' {
		return Term{}, p.errf("malformed blank node label")
	}
	p.i += 2
	start := p.i
	for !p.done() && !isSpaceByte(p.s[p.i]) && p.s[p.i] != '.' {
		p.i++
	}
	label := p.s[start:p.i]
	if label == "" {
		return Term{}, p.errf("empty blank node label")
	}
	return NewBlank(label), nil
}

func (p *lineParser) literal() (Term, error) {
	p.i++ // opening quote
	var b strings.Builder
	for {
		if p.done() {
			return Term{}, p.errf("unterminated literal")
		}
		c := p.s[p.i]
		if c == '"' {
			p.i++
			break
		}
		if c == '\\' {
			p.i++
			if p.done() {
				return Term{}, p.errf("dangling escape")
			}
			switch p.s[p.i] {
			case 't':
				b.WriteByte('\t')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			default:
				return Term{}, p.errf("unsupported escape \\%c", p.s[p.i])
			}
			p.i++
			continue
		}
		b.WriteByte(c)
		p.i++
	}
	lex := b.String()
	// Optional language tag or datatype.
	if p.eat('@') {
		start := p.i
		for !p.done() && (isAlnumByte(p.s[p.i]) || p.s[p.i] == '-') {
			p.i++
		}
		lang := p.s[start:p.i]
		if lang == "" {
			return Term{}, p.errf("empty language tag")
		}
		return NewLangLiteral(lex, lang), nil
	}
	if strings.HasPrefix(p.s[p.i:], "^^") {
		p.i += 2
		if p.peek() != '<' {
			return Term{}, p.errf("datatype must be an IRI")
		}
		dt, err := p.iri()
		if err != nil {
			return Term{}, err
		}
		return NewTypedLiteral(lex, dt.Value), nil
	}
	return NewLiteral(lex), nil
}

func isSpaceByte(c byte) bool { return c == ' ' || c == '\t' }

func isAlnumByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
