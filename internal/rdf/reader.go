package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// ParseError describes a syntax error in an RDF document.
type ParseError struct {
	Line int    // 1-based line number
	Msg  string // description of the problem
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("rdf: line %d: %s", e.Line, e.Msg)
}

// maxLine bounds one line of input; a longer line is a ParseError.
const maxLine = 4 << 20

// Reader reads RDF text one triple at a time: Turtle, and N-Triples as
// its subset with one statement per line and no abbreviations. It
// accepts @prefix and PREFIX declarations, prefixed names, 'a' for
// rdf:type, predicate lists (';') and object lists (','), absolute IRIs,
// blank node labels, '…' and "…" strings with their escapes, language
// tags, datatypes, bare numbers (integers, decimals and doubles with an
// exponent) and booleans, and # comments, each term through the scanner
// the SPARQL lexer uses. This is the subset real-world dataset dumps
// use; @base, relative IRIs, blank-node property lists, collections and
// long strings are not supported. A token never spans lines, and the
// Reader holds one line at a time.
type Reader struct {
	br         *bufio.Reader
	buf        []byte
	s          string // the current line, '\n' included
	i          int    // read offset in s
	line       int
	prefixes   map[string]string
	subj, pred Term // the statement being read; pred is zero between statements
}

// NewReader returns a Reader consuming r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReader(r)}
}

// Read returns the next triple. It returns io.EOF after the last triple,
// a *ParseError for bad syntax or input that is not UTF-8, and an error
// of the underlying reader as it is.
func (r *Reader) Read() (Triple, error) {
	if !r.pred.IsZero() {
		// After an object: ',' repeats the predicate, ';' starts a new
		// one (or dangles before '.'), '.' ends the statement.
		if err := r.skipIn(); err != nil {
			return Triple{}, err
		}
		switch r.s[r.i] {
		case ',':
			r.i++
		case ';':
			r.i++
			if err := r.skipIn(); err != nil {
				return Triple{}, err
			}
			if r.s[r.i] == '.' {
				r.i++
				r.pred = Term{}
			} else if err := r.verb(); err != nil {
				return Triple{}, err
			}
		case '.':
			r.i++
			r.pred = Term{}
		default:
			return Triple{}, r.errf("expected ',', ';' or '.' after object")
		}
	}
	for r.pred.IsZero() {
		if err := r.skip(); err != nil {
			return Triple{}, err
		}
		if err := r.statement(); err != nil {
			return Triple{}, err
		}
	}
	if err := r.skipIn(); err != nil {
		return Triple{}, err
	}
	o, err := r.term(true)
	if err != nil {
		return Triple{}, err
	}
	return Triple{S: r.subj, P: r.pred, O: o}, nil
}

// statement reads a prefix declaration, or a subject and its first
// predicate.
func (r *Reader) statement() error {
	switch {
	case r.keyword("@prefix"), r.keyword("PREFIX"):
		return r.prefix()
	case r.keyword("@base"), r.keyword("BASE"):
		return r.errf("@base is not supported; use absolute IRIs")
	}
	s, err := r.term(false)
	if err != nil {
		return err
	}
	r.subj = s
	return r.verb()
}

// prefix reads the rest of a prefix declaration. Its closing '.' is
// optional, as the SPARQL-style PREFIX form has none.
func (r *Reader) prefix() error {
	if err := r.skipIn(); err != nil {
		return err
	}
	j := strings.IndexByte(r.s[r.i:], ':')
	if j < 0 {
		return r.errf("malformed prefix declaration")
	}
	label := strings.TrimSpace(r.s[r.i : r.i+j])
	r.i += j + 1
	if err := r.skipIn(); err != nil {
		return err
	}
	ns, err := r.scan("IRI", ScanIRI)
	if err != nil {
		return err
	}
	if r.prefixes == nil {
		r.prefixes = map[string]string{}
	}
	r.prefixes[label] = ns
	if err := r.skip(); err != nil {
		if err == io.EOF {
			return nil
		}
		return err
	}
	if r.s[r.i] == '.' {
		r.i++
	}
	return nil
}

// verb reads a predicate: an IRI, a prefixed name, or 'a'.
func (r *Reader) verb() error {
	if err := r.skipIn(); err != nil {
		return err
	}
	if r.s[r.i] == 'a' && r.i+1 < len(r.s) && isSpace(r.s[r.i+1]) {
		r.i++
		r.pred = NewIRI(RDFType)
		return nil
	}
	p, err := r.term(false)
	if err != nil {
		return err
	}
	if !p.IsIRI() {
		return r.errf("predicate must be an IRI, got %s", p)
	}
	r.pred = p
	return nil
}

// term reads an IRI, a prefixed name, a blank node or, in the object
// position, a literal.
func (r *Reader) term(object bool) (Term, error) {
	switch c := r.s[r.i]; {
	case c == '<':
		iri, err := r.scan("IRI", ScanIRI)
		return NewIRI(iri), err
	case c == '_':
		if !strings.HasPrefix(r.s[r.i:], "_:") {
			return Term{}, r.errf("malformed blank node label")
		}
		r.i += 2
		label := r.name()
		if label == "" {
			return Term{}, r.errf("empty blank node label")
		}
		return NewBlank(label), nil
	case c == '"' || c == '\'':
		if !object {
			return Term{}, r.errf("literal not allowed here")
		}
		return r.literal()
	case object && (c == '+' || c == '-' || c == '.' || isDigit(c)):
		t, n, err := ScanNumber(r.s[r.i:])
		if err != nil {
			return Term{}, r.errf("%v", err)
		}
		r.i += n
		t.Value = strings.Clone(t.Value)
		return t, nil
	case object && r.keyword("true"):
		return NewTypedLiteral("true", XSDBoolean), nil
	case object && r.keyword("false"):
		return NewTypedLiteral("false", XSDBoolean), nil
	}
	iri, err := r.pname()
	return NewIRI(iri), err
}

// scan runs one of the term scanners at the read offset and moves past
// the term it read.
func (r *Reader) scan(what string, f func(string) (string, int, error)) (string, error) {
	v, n, err := f(r.s[r.i:])
	if err != nil {
		return "", r.errf("%s: %v", what, err)
	}
	r.i += n
	return v, nil
}

// pname reads a prefixed name and expands it.
func (r *Reader) pname() (string, error) {
	start := r.i
	for r.i < len(r.s) && r.s[r.i] != ':' && !isSpace(r.s[r.i]) {
		r.i++
	}
	if r.i == len(r.s) || r.s[r.i] != ':' {
		return "", r.errf("expected prefixed name near %q", r.s[start:min(start+12, len(r.s))])
	}
	label := r.s[start:r.i]
	r.i++
	local := r.name()
	ns, ok := r.prefixes[label]
	if !ok {
		return "", r.errf("undefined prefix %q", label)
	}
	return ns + local, nil
}

// literal reads a quoted string and its language tag or datatype. Its
// strings are copied out of the line, so a stored literal does not keep
// its whole source line alive.
func (r *Reader) literal() (Term, error) {
	lex, err := r.scan("string", ScanString)
	if err != nil {
		return Term{}, err
	}
	switch rest := r.s[r.i:]; {
	case strings.HasPrefix(rest, "@"):
		lang, err := r.scan("language tag", ScanLangTag)
		return NewLangLiteral(strings.Clone(lex), strings.Clone(lang)), err
	case strings.HasPrefix(rest, "^^"):
		r.i += 2
		if err := r.skipIn(); err != nil {
			return Term{}, err
		}
		var dt string
		if r.s[r.i] == '<' {
			dt, err = r.scan("datatype IRI", ScanIRI)
		} else {
			dt, err = r.pname()
		}
		return NewTypedLiteral(strings.Clone(lex), strings.Clone(dt)), err
	}
	return NewLiteral(strings.Clone(lex)), nil
}

// name reads a name (ScanName): the local part of a prefixed name, or a
// blank node label.
func (r *Reader) name() string {
	start := r.i
	r.i += ScanName(r.s[r.i:])
	return r.s[start:r.i]
}

// keyword reads the bare word w if the line continues with it.
func (r *Reader) keyword(w string) bool {
	rest := r.s[r.i:]
	if !strings.HasPrefix(rest, w) {
		return false
	}
	if c, _ := utf8.DecodeRuneInString(rest[len(w):]); c == ':' || isNameChar(c) {
		return false
	}
	r.i += len(w)
	return true
}

// skip moves past white space and comments, reading lines as needed.
// It returns io.EOF at the end of input.
func (r *Reader) skip() error {
	for {
		for r.i < len(r.s) {
			switch r.s[r.i] {
			case ' ', '\t', '\r', '\n':
				r.i++
			case '#':
				r.i = len(r.s)
			default:
				return nil
			}
		}
		if err := r.nextLine(); err != nil {
			return err
		}
	}
}

// skipIn is skip inside a statement, where the end of input is an error.
func (r *Reader) skipIn() error {
	err := r.skip()
	if err == io.EOF {
		return r.errf("unexpected end of input")
	}
	return err
}

// nextLine reads the next line into s. A read error other than io.EOF
// is returned as it is, so a caller can tell an oversized HTTP body
// (http.MaxBytesError) from bad syntax.
func (r *Reader) nextLine() error {
	r.buf = r.buf[:0]
	for {
		frag, err := r.br.ReadSlice('\n')
		r.buf = append(r.buf, frag...)
		if len(r.buf) > maxLine {
			return &ParseError{Line: r.line + 1, Msg: "line longer than 4 MiB"}
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil && (err != io.EOF || len(r.buf) == 0) {
			return err
		}
		break
	}
	r.line++
	if !utf8.Valid(r.buf) {
		return r.errf("invalid UTF-8")
	}
	r.s, r.i = string(r.buf), 0
	return nil
}

func (r *Reader) errf(format string, args ...any) error {
	return &ParseError{Line: r.line, Msg: fmt.Sprintf(format, args...)}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }
