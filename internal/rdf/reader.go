package rdf

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
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
// rdf:type, predicate lists (';') and object lists (','), IRIs, blank
// node labels, '…' and "…" strings with their escapes, language tags,
// datatypes, bare integers, decimals and booleans, and # comments. This
// is the subset real-world dataset dumps use; @base, blank-node property
// lists, collections and long strings are not supported. A token never
// spans lines, and the Reader holds one line at a time.
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
	ns, err := r.iri()
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
		iri, err := r.iri()
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
	case object && (c == '+' || c == '-' || isDigit(c)):
		return r.number()
	case object && r.keyword("true"):
		return NewTypedLiteral("true", XSDBoolean), nil
	case object && r.keyword("false"):
		return NewTypedLiteral("false", XSDBoolean), nil
	}
	iri, err := r.pname()
	return NewIRI(iri), err
}

// iri reads an IRI in angle brackets. UCHAR is its only escape, and it
// may not stand for a character IRIREF forbids: an IRI read here never
// holds '>', so one pasted between angle brackets into query text ends
// where it should.
func (r *Reader) iri() (string, error) {
	if r.s[r.i] != '<' {
		return "", r.errf("expected '<'")
	}
	iri, n, err := unescape(r.s[r.i:], '>', false)
	if err != nil {
		return "", r.errf("IRI: %v", err)
	}
	r.i += n
	if iri == "" {
		return "", r.errf("empty IRI")
	}
	return iri, nil
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
	lex, n, err := ScanString(r.s[r.i:])
	if err != nil {
		return Term{}, r.errf("string: %v", err)
	}
	r.i += n
	switch rest := r.s[r.i:]; {
	case strings.HasPrefix(rest, "@"):
		r.i++
		start := r.i
		for r.i < len(r.s) && (isDigit(r.s[r.i]) || r.s[r.i] == '-' || isLetter(r.s[r.i])) {
			r.i++
		}
		if r.i == start {
			return Term{}, r.errf("empty language tag")
		}
		return NewLangLiteral(strings.Clone(lex), strings.Clone(r.s[start:r.i])), nil
	case strings.HasPrefix(rest, "^^"):
		r.i += 2
		if err := r.skipIn(); err != nil {
			return Term{}, err
		}
		var dt string
		if r.s[r.i] == '<' {
			dt, err = r.iri()
		} else {
			dt, err = r.pname()
		}
		return NewTypedLiteral(strings.Clone(lex), strings.Clone(dt)), err
	}
	return NewLiteral(strings.Clone(lex)), nil
}

// number reads a bare integer or decimal.
func (r *Reader) number() (Term, error) {
	start := r.i
	if c := r.s[r.i]; c == '+' || c == '-' {
		r.i++
	}
	digits, dot := r.i, false
	for r.i < len(r.s) {
		c := r.s[r.i]
		if c == '.' && !dot && r.i+1 < len(r.s) && isDigit(r.s[r.i+1]) {
			dot = true
		} else if !isDigit(c) {
			break
		}
		r.i++
	}
	if r.i == digits {
		return Term{}, r.errf("malformed number")
	}
	if dot {
		return NewTypedLiteral(r.s[start:r.i], XSDDouble), nil
	}
	return NewTypedLiteral(r.s[start:r.i], XSDInteger), nil
}

// name reads letters, digits, '_' and '-', with '.' inside but not at
// the end: the local part of a prefixed name, or a blank node label.
func (r *Reader) name() string {
	start := r.i
	for r.i < len(r.s) {
		c, size := utf8.DecodeRuneInString(r.s[r.i:])
		if c == '.' {
			c, _ = utf8.DecodeRuneInString(r.s[r.i+1:])
		}
		if !isNameChar(c) {
			break
		}
		r.i += size
	}
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

// ScanString decodes the quoted string that opens s, whose first byte is
// its quote, ' or ". It decodes the escapes the Turtle, N-Triples and
// SPARQL grammars define: ECHAR (\t \b \n \r \f \" \' \\) and UCHAR
// (\uXXXX, \UXXXXXXXX). A raw line break inside it is an error. It
// returns the value and the number of bytes the quoted form spans, both
// quotes included; a string with no escape is a substring of s.
func ScanString(s string) (string, int, error) {
	return unescape(s, s[0], true)
}

// echarNames and echarValues are ECHAR's table: the byte after '\' and
// the byte it stands for.
const echarNames, echarValues = `tbnrf"'\`, "\t\b\n\r\f\"'\\"

// unescape decodes s[1:] up to the first unescaped end byte, UCHAR
// escapes always and ECHAR escapes when echar is set; without ECHAR, as
// in an IRI, a UCHAR may not stand for a character IRIREF forbids. It
// returns the value and the number of bytes up to and including end.
// When no escape or line break comes before end, the value is a
// substring of s.
func unescape(s string, end byte, echar bool) (string, int, error) {
	if j := strings.IndexByte(s[1:], end) + 1; j > 0 {
		if v := s[1:j]; strings.IndexByte(v, '\\') < 0 && strings.IndexByte(v, '\n') < 0 && strings.IndexByte(v, '\r') < 0 {
			return v, j + 1, nil
		}
	}
	var b []byte
	from := 1 // the first byte not yet copied into b
	for i := 1; i < len(s); {
		switch c := s[i]; c {
		case end:
			return string(append(b, s[from:i]...)), i + 1, nil
		case '\n', '\r':
			return "", 0, fmt.Errorf("line break before closing %q", end)
		case '\\':
			r, n := escape(s[i:], echar)
			if n == 0 {
				return "", 0, fmt.Errorf("invalid escape %q", s[i:min(i+2, len(s))])
			}
			if !echar && (r <= ' ' || strings.ContainsRune("<>\"{}|^`\\", r)) {
				return "", 0, fmt.Errorf("escape %q stands for a character IRIREF forbids", s[i:i+n])
			}
			b = utf8.AppendRune(append(b, s[from:i]...), r)
			i += n
			from = i
		default:
			i++
		}
	}
	return "", 0, errors.New("missing closing " + strconv.QuoteRune(rune(end)))
}

// escape decodes the escape sequence that opens s, UCHAR always and
// ECHAR when echar is set. It returns the rune and the sequence's
// length, or a length of 0 when the sequence is invalid.
func escape(s string, echar bool) (rune, int) {
	if len(s) < 2 {
		return 0, 0
	}
	n := 6
	switch s[1] {
	case 'u':
	case 'U':
		n = 10
	default:
		if k := strings.IndexByte(echarNames, s[1]); echar && k >= 0 {
			return rune(echarValues[k]), 2
		}
		return 0, 0
	}
	if len(s) < n {
		return 0, 0
	}
	v, err := strconv.ParseUint(s[2:n], 16, 32)
	if err != nil || !utf8.ValidRune(rune(v)) {
		return 0, 0
	}
	return rune(v), n
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isLetter(c byte) bool { return c|0x20 >= 'a' && c|0x20 <= 'z' }

func isNameChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}
