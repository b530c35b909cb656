package rdf

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ScanString decodes the quoted string that opens s, whose first byte is
// its quote, ' or ". It decodes the escapes the Turtle, N-Triples and
// SPARQL grammars define: ECHAR (\t \b \n \r \f \" \' \\) and UCHAR
// (\uXXXX, \UXXXXXXXX). A raw line break inside it is an error. It
// returns the value and the number of bytes the quoted form spans, both
// quotes included; a string with no escape is a substring of s.
func ScanString(s string) (string, int, error) {
	if j := strings.IndexByte(s[1:], s[0]) + 1; j > 0 {
		if v := s[1:j]; strings.IndexByte(v, '\\') < 0 && strings.IndexByte(v, '\n') < 0 && strings.IndexByte(v, '\r') < 0 {
			return v, j + 1, nil
		}
	}
	return unescape(s, s[0], false)
}

// ScanIRI decodes the IRIREF that opens s, '<' first. UCHAR is its only
// escape. No character IRIREF forbids (space and the controls, <>"{}|^`
// and backslash) may appear in it, raw or escaped, so an IRI read here
// never holds '>' and Term.String writes it back as itself. The IRI must
// be absolute, a scheme ([A-Za-z][A-Za-z0-9+.-]*:) first: N-Triples
// admits only absolute IRIs, and neither reader resolves against a base.
// An IRI with no escape is a substring of s.
func ScanIRI(s string) (string, int, error) {
	if !strings.HasPrefix(s, "<") {
		return "", 0, errors.New("expected '<'")
	}
	iri, n, err := unescape(s, '>', true)
	if err != nil {
		return "", 0, err
	}
	if colon := strings.IndexByte(iri, ':'); colon < 1 || !isLetter(iri[0]) || strings.Trim(iri[:colon], schemeChars) != "" {
		return "", 0, fmt.Errorf("IRI <%s> is not absolute", iri)
	}
	return iri, n, nil
}

// schemeChars are the bytes a scheme may hold; its first is a letter.
const schemeChars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789+-."

// unescape decodes s[1:] up to the first unescaped end byte. In an IRI
// UCHAR is the only escape and no character IRIREF forbids may appear,
// raw or escaped; in a string ECHAR is an escape too and a raw line
// break is an error. It returns the value and the number of bytes up to
// and including end; with no escape the value is a substring of s.
func unescape(s string, end byte, iri bool) (string, int, error) {
	var b []byte
	from := 1 // the first byte not yet copied into b
	for i := 1; i < len(s); {
		switch c := s[i]; {
		case c == end:
			if b == nil {
				return s[1:i], i + 1, nil
			}
			return string(append(b, s[from:i]...)), i + 1, nil
		case c == '\\':
			r, n := escape(s[i:], !iri)
			if n == 0 {
				return "", 0, fmt.Errorf("invalid escape %q", s[i:min(i+2, len(s))])
			}
			if iri && iriForbids(r) {
				return "", 0, fmt.Errorf("escape %q stands for a character IRIREF forbids", s[i:i+n])
			}
			b = utf8.AppendRune(append(b, s[from:i]...), r)
			i += n
			from = i
		case iri && iriForbids(rune(c)):
			return "", 0, fmt.Errorf("%q may not appear in an IRI", c)
		case c == '\n' || c == '\r':
			return "", 0, fmt.Errorf("line break before closing %q", end)
		default:
			i++
		}
	}
	return "", 0, errors.New("missing closing " + strconv.QuoteRune(rune(end)))
}

// iriForbids reports whether IRIREF excludes r.
func iriForbids(r rune) bool {
	switch r {
	case '<', '>', '"', '{', '}', '|', '^', '`', '\\':
		return true
	}
	return r <= ' '
}

// ScanLangTag reads the LANGTAG that opens s, '@' first:
// [a-zA-Z]+ ('-' [a-zA-Z0-9]+)*. It returns the tag without its '@', a
// substring of s, and the number of bytes it spans, '@' included.
func ScanLangTag(s string) (string, int, error) {
	i := 1
	for i < len(s) && isLetter(s[i]) {
		i++
	}
	if i == 1 {
		return "", 0, errors.New("no letter after '@'")
	}
	for i+1 < len(s) && s[i] == '-' && isAlnum(s[i+1]) {
		for i += 2; i < len(s) && isAlnum(s[i]); i++ {
		}
	}
	return s[1:i], i, nil
}

// ScanNumber reads the INTEGER, DECIMAL or DOUBLE that opens s, with an
// optional sign, as a literal typed xsd:integer, xsd:decimal or
// xsd:double (Turtle §6.5, SPARQL §19.8), and returns it and the number
// of bytes it spans. Its lexical form is a substring of s.
func ScanNumber(s string) (Term, int, error) {
	sign := 0
	if s != "" && (s[0] == '+' || s[0] == '-') {
		sign = 1
	}
	i, dt := digits(s, sign), XSDInteger
	if i < len(s) && s[i] == '.' {
		if j := digits(s, i+1); j > i+1 {
			i, dt = j, XSDDecimal
		} else if i > sign && exponent(s, i+1) > i+1 {
			i++ // "1.e3": the '.' belongs to the double
		}
	}
	if i == sign {
		return Term{}, 0, errors.New("malformed number")
	}
	if j := exponent(s, i); j > i {
		i, dt = j, XSDDouble
	}
	return NewTypedLiteral(s[:i], dt), i, nil
}

// digits returns the index of the first byte at or after i in s that is
// not a decimal digit.
func digits(s string, i int) int {
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	return i
}

// exponent returns the end of the EXPONENT ([eE] [+-]? [0-9]+) that opens
// s[i:], or i when there is none.
func exponent(s string, i int) int {
	if i >= len(s) || s[i]|0x20 != 'e' {
		return i
	}
	j := i + 1
	if j < len(s) && (s[j] == '+' || s[j] == '-') {
		j++
	}
	if k := digits(s, j); k > j {
		return k
	}
	return i
}

// ScanName returns the length of the name that opens s, the local part
// of a prefixed name or a blank node label: letters, digits, '_' and
// '-', with '.' inside but not at the end.
func ScanName(s string) int {
	i := 0
	for i < len(s) {
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == '.' {
			c, _ = utf8.DecodeRuneInString(s[i+1:])
		}
		if !isNameChar(c) {
			break
		}
		i += size
	}
	return i
}

func isNameChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}

// echarNames and echarValues are ECHAR's table: the byte after '\' and
// the byte it stands for.
const echarNames, echarValues = `tbnrf"'\`, "\t\b\n\r\f\"'\\"

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

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isLetter(c byte) bool { return c|0x20 >= 'a' && c|0x20 <= 'z' }

func isAlnum(c byte) bool { return isLetter(c) || isDigit(c) }
