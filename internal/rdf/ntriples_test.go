package rdf

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestReaderBasic(t *testing.T) {
	doc := `
# a comment
<http://s> <http://p> <http://o> .
<http://s> <http://p> "literal" .

<http://s> <http://p> "tagged"@en .
<http://s> <http://p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b0 <http://p> "from blank" .
`
	triples, err := readAll(NewReader(strings.NewReader(doc)))
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != 5 {
		t.Fatalf("got %d triples, want 5", len(triples))
	}
	if triples[2].O.Lang != "en" {
		t.Errorf("lang = %q, want en", triples[2].O.Lang)
	}
	if triples[3].O.Datatype != XSDInteger {
		t.Errorf("datatype = %q", triples[3].O.Datatype)
	}
	if !triples[4].S.IsBlank() || triples[4].S.Value != "b0" {
		t.Errorf("blank subject = %+v", triples[4].S)
	}
}

func TestReaderErrors(t *testing.T) {
	bad := []string{
		`<http://s> <http://p> .`,                     // missing object
		`<http://s> <http://p> <http://o>`,            // missing dot
		`<http://s> <http://p> <http://o> . trailing`, // garbage
		`"lit" <http://p> <http://o> .`,               // literal subject
		`<http://s> "lit" <http://o> .`,               // literal predicate
		`<http://s> <http://p> "unterminated .`,       // unterminated literal
		`<http://s> <http://p> "bad\qescape" .`,       // bad escape
		`<http://s> <http://p> "x"@ .`,                // empty lang
		`<> <http://p> <http://o> .`,                  // empty IRI
		`<http://s <http://p> <http://o> .`,           // unterminated IRI
		`_: <http://p> <http://o> .`,                  // empty blank label
		`<http://s> <http://p> "x"^^bad .`,            // datatype not IRI
	}
	for _, doc := range bad {
		if _, err := parseTriple(doc); err == nil {
			t.Errorf("parseTriple(%q) succeeded, want error", doc)
		}
	}
}

func TestParseErrorMessage(t *testing.T) {
	_, err := parseTriple(`<http://s> <http://p>`)
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Line != 1 || pe.Error() == "" {
		t.Errorf("unexpected ParseError: %+v", pe)
	}
}

func TestReaderLineNumbersInErrors(t *testing.T) {
	doc := "<http://s> <http://p> <http://o> .\nnot a triple\n"
	r := NewReader(strings.NewReader(doc))
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	_, err := r.Read()
	pe, ok := err.(*ParseError)
	if !ok || pe.Line != 2 {
		t.Errorf("error = %v, want ParseError at line 2", err)
	}
}

func TestWriterRoundTrip(t *testing.T) {
	// Triple.String is the N-Triples writer: every statement it emits
	// reads back as the same triple.
	triples := []Triple{
		NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewIRI("http://o")),
		NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewLangLiteral("hello world", "en")),
		NewTriple(NewBlank("x"), NewIRI("http://p"), NewTypedLiteral("3.14", XSDDouble)),
		NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewLiteral("esc \" \\ \n \t")),
	}
	var buf bytes.Buffer
	for _, tr := range triples {
		buf.WriteString(tr.String() + "\n")
	}
	got, err := readAll(NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(triples) {
		t.Fatalf("round trip count %d, want %d", len(got), len(triples))
	}
	for i := range triples {
		if got[i] != triples[i] {
			t.Errorf("triple %d: got %v, want %v", i, got[i], triples[i])
		}
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader(strings.NewReader("# only comments\n\n"))
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("Read on comment-only doc = %v, want io.EOF", err)
	}
}

// readAll reads every remaining triple.
func readAll(r *Reader) ([]Triple, error) {
	var out []Triple
	for {
		tr, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, tr)
	}
}

// parseTriple parses a single N-Triples statement such as
// `<s> <p> "o"@en .`.
func parseTriple(s string) (Triple, error) {
	return parseTripleLine(strings.TrimSpace(s), 1)
}
