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
