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
	tokNumber              // 42, 3.14, -1
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
	case c == '<':
		// '<' is ambiguous: IRI open bracket or less-than operator.
		// Treat it as an operator when followed by '=', whitespace, a
		// digit, or a variable — i.e. anything that cannot start an IRI
		// body that closes with '>'.
		if lx.i+1 < len(lx.src) {
			nc := lx.src[lx.i+1]
			if nc == '=' {
				lx.i += 2
				return token{kind: tokOp, text: "<=", pos: start}, nil
			}
			if nc == ' ' || nc == '\t' || nc == '\n' || nc == '\r' || isDigit(nc) || nc == '?' || nc == '$' || nc == '-' {
				lx.i++
				return token{kind: tokOp, text: "<", pos: start}, nil
			}
		}
		lx.i++
		j := strings.IndexByte(lx.src[lx.i:], '>')
		if j < 0 {
			return token{}, lx.errf("unterminated IRI")
		}
		iri := lx.src[lx.i : lx.i+j]
		lx.i += j + 1
		return token{kind: tokIRI, text: iri, pos: start}, nil
	case c == '"' || c == '\'':
		s, n, err := rdf.ScanString(lx.src[lx.i:])
		if err != nil {
			return token{}, lx.errf("string literal: %v", err)
		}
		lx.i += n
		return token{kind: tokString, text: s, pos: start}, nil
	case c == '@':
		lx.i++
		tag := lx.ident()
		if tag == "" {
			return token{}, lx.errf("empty language tag")
		}
		for lx.i < len(lx.src) && lx.src[lx.i] == '-' {
			lx.i++
			tag += "-" + lx.ident()
		}
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
		// Distinguish the triple terminator from a decimal number.
		if lx.i+1 < len(lx.src) && isDigit(lx.src[lx.i+1]) {
			return lx.number()
		}
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
		if lx.i+1 < len(lx.src) && isDigit(lx.src[lx.i+1]) {
			return lx.number()
		}
		lx.i++
		return token{kind: tokOp, text: "-", pos: start}, nil
	case c == '/':
		lx.i++
		return token{kind: tokOp, text: "/", pos: start}, nil
	case isDigit(c):
		return lx.number()
	case isIdentStartAt(lx.src[lx.i:]):
		name := lx.ident()
		// Prefixed name: label ':' local. The label may be empty only
		// via the ':' branch below.
		if lx.i < len(lx.src) && lx.src[lx.i] == ':' {
			lx.i++
			local := lx.pnameLocal()
			return token{kind: tokPName, text: name + ":" + local, pos: start}, nil
		}
		return token{kind: tokIdent, text: name, pos: start}, nil
	case c == ':':
		lx.i++
		local := lx.pnameLocal()
		return token{kind: tokPName, text: ":" + local, pos: start}, nil
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
// than casting bytes) matters: a stray non-UTF-8 byte must not lex as a
// Latin-1 letter, because downstream canonicalization (strings.ToLower
// on function names) would replace it with U+FFFD and the canonical
// form would no longer re-lex — found by FuzzParse.
func (lx *lexer) ident() string {
	start := lx.i
	for lx.i < len(lx.src) {
		r, size := utf8.DecodeRuneInString(lx.src[lx.i:])
		if (r == utf8.RuneError && size == 1) || !isIdentPart(r) {
			break
		}
		lx.i += size
	}
	return lx.src[start:lx.i]
}

// pnameLocal scans the local part of a prefixed name, which may contain
// dots as long as they are not terminal.
func (lx *lexer) pnameLocal() string {
	start := lx.i
	for lx.i < len(lx.src) {
		c, size := utf8.DecodeRuneInString(lx.src[lx.i:])
		if c == utf8.RuneError && size <= 1 {
			break
		}
		if isIdentPart(c) || c == '-' {
			lx.i += size
			continue
		}
		if c == '.' && lx.i+1 < len(lx.src) && isIdentPartAt(lx.src[lx.i+1:]) {
			lx.i++
			continue
		}
		break
	}
	return lx.src[start:lx.i]
}

func (lx *lexer) number() (token, error) {
	start := lx.i
	if lx.src[lx.i] == '-' || lx.src[lx.i] == '+' {
		lx.i++
	}
	seenDot := false
	for lx.i < len(lx.src) {
		c := lx.src[lx.i]
		if isDigit(c) {
			lx.i++
			continue
		}
		if c == '.' && !seenDot && lx.i+1 < len(lx.src) && isDigit(lx.src[lx.i+1]) {
			seenDot = true
			lx.i++
			continue
		}
		break
	}
	return token{kind: tokNumber, text: lx.src[start:lx.i], pos: start}, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

// isIdentStartAt reports whether s opens with a valid identifier rune,
// decoding UTF-8 properly (an invalid byte is never an ident start).
func isIdentStartAt(s string) bool {
	r, size := utf8.DecodeRuneInString(s)
	if r == utf8.RuneError && size <= 1 {
		return false
	}
	return isIdentStart(r)
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

// isIdentPartAt is isIdentPart over the first properly decoded rune of s.
func isIdentPartAt(s string) bool {
	r, size := utf8.DecodeRuneInString(s)
	if r == utf8.RuneError && size <= 1 {
		return false
	}
	return isIdentPart(r)
}
