package rdf

import (
	"errors"
	"strings"
	"testing"
)

// TestReaderUnicodeEscapes reads the UCHAR escapes of ASCII-only
// N-Triples files, as the 2004 recommendation writes them: in literals,
// in IRIs, and in a Turtle document.
func TestReaderUnicodeEscapes(t *testing.T) {
	cases := []struct {
		doc  string
		want Triple
	}{
		{`<http://s> <http://p> "Caf\u00E9"@fr .`,
			NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewLangLiteral("Café", "fr"))},
		{`<http://s> <http://p> "smile \U0001F600" .`,
			NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewLiteral("smile 😀"))},
		{`<http://x/Caf\u00E9> <http://p> "a\tb\u0022" .`,
			NewTriple(NewIRI("http://x/Café"), NewIRI("http://p"), NewLiteral("a\tb\""))},
		{"@prefix x: <http://x/> .\nx:s x:p 'it\\'s \\u00E9' .",
			NewTriple(NewIRI("http://x/s"), NewIRI("http://x/p"), NewLiteral("it's é"))},
	}
	for _, c := range cases {
		got, err := parseTriple(c.doc)
		if err != nil || got != c.want {
			t.Errorf("%s: got %v, %v; want %v", c.doc, got, err, c.want)
		}
	}
	for _, doc := range []string{
		`<http://s> <http://p> "\u00E" .`,               // short UCHAR
		`<http://s> <http://p> "\uD800" .`,              // surrogate
		`<http://s> <http://p> "\U00110000" .`,          // beyond Unicode
		`<http://s> <http://p> "\u+0E9" .`,              // not hex
		`<http://x/\n> <http://p> <http://o> .`,         // ECHAR in an IRI
		`<http://s\u003E> <http://p> <http://o> .`,      // UCHAR for '>' in an IRI
		`<http://s> <http://p> "x"^^<http://d\u0020> .`, // UCHAR for a space in a datatype
		"<http://s> <http://p> \"a\rb\" .",              // raw CR in a string
		"<http://s> <http://p> \"a\nb\" .",              // raw LF in a string
		"<http://s> <http://p> \"\xff\" .",              // not UTF-8
		"<http://s/\xc3> <http://p> <http://o> .",       // truncated UTF-8
	} {
		_, err := parseTriple(doc)
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Line == 0 {
			t.Errorf("%q: error %v, want a *ParseError with a line", doc, err)
		}
	}
}

func TestScanString(t *testing.T) {
	cases := []struct {
		in, val string
		n       int
	}{
		{`"plain" rest`, "plain", 7},
		{`'it''s'`, "it", 4},
		{`'say "hi"'`, `say "hi"`, 10},
		{`"\t\b\n\r\f\"\'\\"`, "\t\b\n\r\f\"'\\", 18},
		{`"\u00E9\U0001F600"`, "é😀", 18},
		{`""`, "", 2},
	}
	for _, c := range cases {
		val, n, err := ScanString(c.in)
		if err != nil || val != c.val || n != c.n {
			t.Errorf("ScanString(%q) = %q, %d, %v; want %q, %d", c.in, val, n, err, c.val, c.n)
		}
	}
	for _, in := range []string{`"open`, `"\q"`, `"\`, "\"a\nb\"", "'a\rb'", `"\u12"`} {
		if _, _, err := ScanString(in); err == nil {
			t.Errorf("ScanString(%q) succeeded, want error", in)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _, _ = ScanString(`"no escape here"`) }); allocs != 0 {
		t.Errorf("a string with no escape allocates %v times, want 0", allocs)
	}
}

// TestReaderRejectsTermsQueriesCannotHold: the reader returns only
// terms the SPARQL lexer reads back. A relative IRI (no scheme, so '<'
// before it would read as less-than in a query) and a language tag
// that does not open with a letter are each a *ParseError.
func TestReaderRejectsTermsQueriesCannotHold(t *testing.T) {
	for _, doc := range []string{
		`<1abc> <http://p> <http://o> .`,
		`<-x> <http://p> <http://o> .`,
		`<?x> <http://p> <http://o> .`,
		`<$x> <http://p> <http://o> .`,
		`<http://s> <http://p> "x"@-en .`,
	} {
		_, err := parseTriple(doc)
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Line != 1 {
			t.Errorf("%q: error %v, want a *ParseError at line 1", doc, err)
		}
	}
}

func TestScanIRI(t *testing.T) {
	cases := []struct {
		in, val string
		n       int
	}{
		{`<http://x/a> rest`, "http://x/a", 12},
		{`<urn:isbn:1>`, "urn:isbn:1", 12},
		{`<x-y.z+1:b>`, "x-y.z+1:b", 11},
		{`<http://x/Caf\u00E9>`, "http://x/Café", 20},
	}
	for _, c := range cases {
		val, n, err := ScanIRI(c.in)
		if err != nil || val != c.val || n != c.n {
			t.Errorf("ScanIRI(%q) = %q, %d, %v; want %q, %d", c.in, val, n, err, c.val, c.n)
		}
	}
	for _, in := range []string{`<>`, `<abc>`, `<1a:b>`, `<:b>`, `<http://x`, `<http://x y>`,
		`<http://x"y>`, `<http://x{y>`, `<http://x\u0020>`, `<http://x\n>`, `http://x>`} {
		if _, _, err := ScanIRI(in); err == nil {
			t.Errorf("ScanIRI(%q) succeeded, want error", in)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _, _ = ScanIRI(`<http://x/no/escape>`) }); allocs != 0 {
		t.Errorf("an IRI with no escape allocates %v times, want 0", allocs)
	}
}

func TestScanLangTag(t *testing.T) {
	cases := []struct {
		in, tag string
		n       int
	}{
		{`@en .`, "en", 3},
		{`@en-GB`, "en-GB", 6},
		{`@de-CH-1996 `, "de-CH-1996", 11},
		{`@en-`, "en", 3},
		{`@en_US`, "en", 3},
	}
	for _, c := range cases {
		tag, n, err := ScanLangTag(c.in)
		if err != nil || tag != c.tag || n != c.n {
			t.Errorf("ScanLangTag(%q) = %q, %d, %v; want %q, %d", c.in, tag, n, err, c.tag, c.n)
		}
	}
	for _, in := range []string{`@`, `@-en`, `@1en`, `@ en`} {
		if _, _, err := ScanLangTag(in); err == nil {
			t.Errorf("ScanLangTag(%q) succeeded, want error", in)
		}
	}
}

func TestScanNumber(t *testing.T) {
	cases := []struct {
		in, lex, dt string
	}{
		{"42 .", "42", XSDInteger},
		{"-7,", "-7", XSDInteger},
		{"+3", "+3", XSDInteger},
		{"1. ", "1", XSDInteger},
		{"2.5.", "2.5", XSDDecimal},
		{"-.5", "-.5", XSDDecimal},
		{".5", ".5", XSDDecimal},
		{"1e3", "1e3", XSDDouble},
		{"1E-3;", "1E-3", XSDDouble},
		{"1.e3", "1.e3", XSDDouble},
		{"-2.5e+10", "-2.5e+10", XSDDouble},
		{".5e1", ".5e1", XSDDouble},
		{"1e", "1", XSDInteger},
		{"1e+x", "1", XSDInteger},
	}
	for _, c := range cases {
		lit, n, err := ScanNumber(c.in)
		if err != nil || lit != NewTypedLiteral(c.lex, c.dt) || n != len(c.lex) {
			t.Errorf("ScanNumber(%q) = %v, %d, %v; want %q typed %s", c.in, lit, n, err, c.lex, c.dt)
		}
	}
	for _, in := range []string{"", "+", "-x", ".", "-.", ".e3"} {
		if _, _, err := ScanNumber(in); err == nil {
			t.Errorf("ScanNumber(%q) succeeded, want error", in)
		}
	}
}

// TestReaderLongLine checks the line bound: a line of 4 MiB reads, and
// one byte more is a ParseError, not a silent truncation.
func TestReaderLongLine(t *testing.T) {
	head, tail := `<http://s> <http://p> "`, "\" .\n"
	fits := head + strings.Repeat("x", maxLine-len(head)-len(tail)) + tail
	if _, err := parseTriple(fits); err != nil {
		t.Errorf("a line of exactly %d bytes: %v", maxLine, err)
	}
	var pe *ParseError
	if _, err := parseTriple(fits[:1] + fits); !errors.As(err, &pe) {
		t.Errorf("a line one byte longer: %v, want a *ParseError", err)
	}
}

// FuzzReader is the battery of the one RDF text decoder: N-Triples
// dumps, Turtle documents and POST /add bodies all read through Reader.
// For any input Read must not panic, and every triple it returns must
// be Valid. Writer and reader are inverse: every returned triple writes
// as one N-Triples line that reads back as the same triple.
func FuzzReader(f *testing.F) {
	seeds := []string{ntBasicDoc, ttlBasicDoc, ttlMixedDoc,
		`<http://s> <http://p> "Caf\u00E9"@fr .`,
		"@prefix x: <http://x/> .\nx:stevens x:instrument x:guitar, x:piano, x:drums .\n"}
	seeds = append(seeds, ntBadDocs...)
	for _, doc := range ttlBadDocs {
		seeds = append(seeds, doc)
	}
	for _, doc := range seeds {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		r := NewReader(strings.NewReader(doc))
		for {
			tr, err := r.Read()
			if err != nil {
				return
			}
			if !tr.Valid() {
				t.Fatalf("invalid triple %#v from %q", tr, doc)
			}
			back, err := parseTriple(tr.String())
			if err != nil || back != tr {
				t.Fatalf("%#v does not round-trip\nwritten: %s\nread:    %#v, %v", tr, tr.String(), back, err)
			}
		}
	})
}
