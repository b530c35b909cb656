package sparql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"sapphire/internal/rdf"
)

// tokenKind enumerates lexical token classes.
type tokenKind uint8

const (
	tokEOF       tokenKind = iota
	tokIdent               // bare identifier or keyword: SELECT, FILTER, a, count
	tokVar                 // ?name or $name
	tokIRI                 // <...>
	tokPName               // prefixed name: dbo:Scientist or dbo:
	tokString              // "..." or '...'
	tokNumber              // 42, 3.14, -1, 1e3
	tokLangTag             // @en
	tokDTSep               // ^^
	tokLBrace              // {
	tokRBrace              // }
	tokLParen              // (
	tokRParen              // )
	tokDot                 // .
	tokComma               // ,
	tokSemicolon           // ;
	tokStar                // *
	tokOp                  // operators: = != < > <= >= && || ! + - /
)

type token struct {
	kind tokenKind
	text string
	pos  int // byte offset for error reporting
}

// lexer tokenizes a SPARQL query string.
type lexer struct {
	src string
	i   int
}

// lexAll tokenizes the whole input.
func lexAll(src string) ([]token, error) {
	lx := &lexer{src: src}
	var out []token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}

func (lx *lexer) errf(format string, args ...any) error {
	line := 1 + strings.Count(lx.src[:lx.i], "\n")
	return fmt.Errorf("sparql: lex error at line %d: %s", line, fmt.Sprintf(format, args...))
}

func (lx *lexer) next() (token, error) {
	lx.skipWS()
	if lx.i >= len(lx.src) {
		return token{kind: tokEOF, pos: lx.i}, nil
	}
	start := lx.i
	c := lx.src[lx.i]
	switch {
	case c == '?' || c == '$':
		lx.i++
		name := lx.ident()
		if name == "" {
			return token{}, lx.errf("empty variable name")
		}
		return token{kind: tokVar, text: name, pos: start}, nil
	case isDigit(c) || (c == '.' || c == '-') && lx.i+1 < len(lx.src) && isDigit(lx.src[lx.i+1]):
		_, n, err := rdf.ScanNumber(lx.src[lx.i:])
		if err != nil {
			return token{}, lx.errf("%v", err)
		}
		lx.i += n
		return token{kind: tokNumber, text: lx.src[start:lx.i], pos: start}, nil
	case c == '<':
		// '<' opens an IRI exactly when the IRI scanner accepts the text
		// there; otherwise it is the less-than operator.
		if iri, n, err := rdf.ScanIRI(lx.src[lx.i:]); err == nil {
			lx.i += n
			return token{kind: tokIRI, text: iri, pos: start}, nil
		}
		if strings.HasPrefix(lx.src[lx.i:], "<=") {
			lx.i += 2
			return token{kind: tokOp, text: "<=", pos: start}, nil
		}
		lx.i++
		return token{kind: tokOp, text: "<", pos: start}, nil
	case c == '"' || c == '\'':
		s, n, err := rdf.ScanString(lx.src[lx.i:])
		if err != nil {
			return token{}, lx.errf("string literal: %v", err)
		}
		lx.i += n
		return token{kind: tokString, text: s, pos: start}, nil
	case c == '@':
		tag, n, err := rdf.ScanLangTag(lx.src[lx.i:])
		if err != nil {
			return token{}, lx.errf("language tag: %v", err)
		}
		lx.i += n
		return token{kind: tokLangTag, text: tag, pos: start}, nil
	case c == '^':
		if strings.HasPrefix(lx.src[lx.i:], "^^") {
			lx.i += 2
			return token{kind: tokDTSep, pos: start}, nil
		}
		return token{}, lx.errf("unexpected '^'")
	case c == '{':
		lx.i++
		return token{kind: tokLBrace, pos: start}, nil
	case c == '}':
		lx.i++
		return token{kind: tokRBrace, pos: start}, nil
	case c == '(':
		lx.i++
		return token{kind: tokLParen, pos: start}, nil
	case c == ')':
		lx.i++
		return token{kind: tokRParen, pos: start}, nil
	case c == ',':
		lx.i++
		return token{kind: tokComma, pos: start}, nil
	case c == ';':
		lx.i++
		return token{kind: tokSemicolon, pos: start}, nil
	case c == '*':
		lx.i++
		return token{kind: tokStar, pos: start}, nil
	case c == '.':
		lx.i++
		return token{kind: tokDot, pos: start}, nil
	case c == '=':
		lx.i++
		return token{kind: tokOp, text: "=", pos: start}, nil
	case c == '!':
		if strings.HasPrefix(lx.src[lx.i:], "!=") {
			lx.i += 2
			return token{kind: tokOp, text: "!=", pos: start}, nil
		}
		lx.i++
		return token{kind: tokOp, text: "!", pos: start}, nil
	case c == '>':
		lx.i++
		op := ">"
		if lx.i < len(lx.src) && lx.src[lx.i] == '=' {
			op += "="
			lx.i++
		}
		return token{kind: tokOp, text: op, pos: start}, nil
	case c == '&':
		if strings.HasPrefix(lx.src[lx.i:], "&&") {
			lx.i += 2
			return token{kind: tokOp, text: "&&", pos: start}, nil
		}
		return token{}, lx.errf("unexpected '&'")
	case c == '|':
		if strings.HasPrefix(lx.src[lx.i:], "||") {
			lx.i += 2
			return token{kind: tokOp, text: "||", pos: start}, nil
		}
		return token{}, lx.errf("unexpected '|'")
	case c == '+':
		lx.i++
		return token{kind: tokOp, text: "+", pos: start}, nil
	case c == '-':
		lx.i++
		return token{kind: tokOp, text: "-", pos: start}, nil
	case c == '/':
		lx.i++
		return token{kind: tokOp, text: "/", pos: start}, nil
	case isIdentStartAt(lx.src[lx.i:]):
		name := lx.ident()
		// Prefixed name: label ':' local. The label may be empty only
		// via the ':' branch below.
		if lx.i < len(lx.src) && lx.src[lx.i] == ':' {
			lx.i += 1 + rdf.ScanName(lx.src[lx.i+1:])
			return token{kind: tokPName, text: lx.src[start:lx.i], pos: start}, nil
		}
		return token{kind: tokIdent, text: name, pos: start}, nil
	case c == ':':
		lx.i += 1 + rdf.ScanName(lx.src[lx.i+1:])
		return token{kind: tokPName, text: lx.src[start:lx.i], pos: start}, nil
	default:
		return token{}, lx.errf("unexpected character %q", c)
	}
}

func (lx *lexer) skipWS() {
	for lx.i < len(lx.src) {
		c := lx.src[lx.i]
		if c == '#' {
			j := strings.IndexByte(lx.src[lx.i:], '\n')
			if j < 0 {
				lx.i = len(lx.src)
				return
			}
			lx.i += j + 1
			continue
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			lx.i++
			continue
		}
		return
	}
}

// ident scans an identifier rune by rune. Decoding real UTF-8 (rather
// than casting bytes) matters: a stray non-UTF-8 byte decodes as
// U+FFFD, which is no letter, instead of lexing as a Latin-1 letter
// that downstream canonicalization (strings.ToLower on function names)
// would replace with U+FFFD, so the canonical form would no longer
// re-lex — found by FuzzParse.
func (lx *lexer) ident() string {
	start := lx.i
	for lx.i < len(lx.src) {
		r, size := utf8.DecodeRuneInString(lx.src[lx.i:])
		if !isIdentPart(r) {
			break
		}
		lx.i += size
	}
	return lx.src[start:lx.i]
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// isIdentStartAt reports whether s opens with a letter or '_', decoded
// as UTF-8 (an invalid byte is never an ident start).
func isIdentStartAt(s string) bool {
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}
