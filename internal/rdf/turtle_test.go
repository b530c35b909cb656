package rdf

import (
	"strings"
	"testing"
)

func parseTTL(t *testing.T, src string) []Triple {
	t.Helper()
	triples, err := readAll(NewReader(strings.NewReader(src)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return triples
}

// ttlBasicDoc uses prefixes, 'a', a predicate list and a bare integer.
var ttlBasicDoc = `
@prefix dbo: <http://dbpedia.org/ontology/> .
@prefix dbr: <http://dbpedia.org/resource/> .

dbr:Jack_Kerouac a dbo:Writer ;
    dbo:name "Jack Kerouac"@en ;
    dbo:birthYear "1922"^^<http://www.w3.org/2001/XMLSchema#integer> .

dbr:On_the_Road dbo:author dbr:Jack_Kerouac ;
    dbo:numberOfPages 320 .
`

func TestTurtleBasic(t *testing.T) {
	triples := parseTTL(t, ttlBasicDoc)
	if len(triples) != 5 {
		t.Fatalf("triples = %d, want 5", len(triples))
	}
	if triples[0].P.Value != RDFType {
		t.Errorf("'a' not expanded: %v", triples[0])
	}
	if triples[1].O.Lang != "en" {
		t.Errorf("lang literal: %v", triples[1].O)
	}
	if triples[2].O.Datatype != XSDInteger {
		t.Errorf("typed literal: %v", triples[2].O)
	}
	if triples[4].O.Datatype != XSDInteger || triples[4].O.Value != "320" {
		t.Errorf("bare integer: %v", triples[4].O)
	}
}

func TestTurtleObjectLists(t *testing.T) {
	ttl := `
@prefix x: <http://x/> .
x:stevens x:instrument x:guitar, x:piano, x:drums .
`
	triples := parseTTL(t, ttl)
	if len(triples) != 3 {
		t.Fatalf("object list produced %d triples, want 3", len(triples))
	}
	for _, tr := range triples {
		if tr.S.Value != "http://x/stevens" || tr.P.Value != "http://x/instrument" {
			t.Errorf("shared S/P broken: %v", tr)
		}
	}
}

// ttlMixedDoc mixes object and predicate lists, comments, a dangling ';',
// a boolean and a decimal.
var ttlMixedDoc = `
@prefix x: <http://x/> . # namespace
# a whole-line comment
x:a x:p1 "v1" ;   # trailing comment
    x:p2 "v2", "v3" ;
    .
x:b x:p1 true .
x:c x:p1 -2.5 .
`

func TestTurtleMixedListsAndComments(t *testing.T) {
	triples := parseTTL(t, ttlMixedDoc)
	if len(triples) != 5 {
		t.Fatalf("triples = %d, want 5", len(triples))
	}
	if triples[3].O.Datatype != XSDBoolean {
		t.Errorf("boolean literal: %v", triples[3].O)
	}
	if triples[4].O.Datatype != XSDDouble || triples[4].O.Value != "-2.5" {
		t.Errorf("decimal literal: %v", triples[4].O)
	}
}

func TestTurtleBlankNodes(t *testing.T) {
	ttl := `
@prefix x: <http://x/> .
_:b1 x:p "from blank" .
x:a x:q _:b1 .
`
	triples := parseTTL(t, ttl)
	if len(triples) != 2 {
		t.Fatalf("triples = %d", len(triples))
	}
	if !triples[0].S.IsBlank() || triples[0].S.Value != "b1" {
		t.Errorf("blank subject: %v", triples[0].S)
	}
	if !triples[1].O.IsBlank() {
		t.Errorf("blank object: %v", triples[1].O)
	}
}

func TestTurtleSparqlStylePrefix(t *testing.T) {
	ttl := `PREFIX x: <http://x/>
x:a x:p x:b .
`
	triples := parseTTL(t, ttl)
	if len(triples) != 1 {
		t.Fatalf("triples = %d", len(triples))
	}
}

func TestTurtleDatatypePrefixedName(t *testing.T) {
	ttl := `
@prefix x: <http://x/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
x:a x:p "42"^^xsd:integer .
`
	triples := parseTTL(t, ttl)
	if triples[0].O.Datatype != XSDInteger {
		t.Errorf("prefixed datatype: %v", triples[0].O)
	}
}

func TestTurtleSingleQuotes(t *testing.T) {
	ttl := `
@prefix x: <http://x/> .
x:a x:p 'single quoted' .
`
	triples := parseTTL(t, ttl)
	if triples[0].O.Value != "single quoted" {
		t.Errorf("single-quote literal: %v", triples[0].O)
	}
}

// ttlBadDocs are Turtle documents that must not read, by what is wrong.
var ttlBadDocs = map[string]string{
	"undefined prefix":    `x:a x:p x:b .`,
	"literal subject":     `@prefix x: <http://x/> . "lit" x:p x:b .`,
	"literal predicate":   `@prefix x: <http://x/> . x:a "lit" x:b .`,
	"missing terminator":  `@prefix x: <http://x/> . x:a x:p x:b`,
	"unterminated iri":    `@prefix x: <http://x/ .`,
	"unterminated string": `@prefix x: <http://x/> . x:a x:p "open .`,
	"base unsupported":    `@base <http://x/> .`,
	"bad escape":          `@prefix x: <http://x/> . x:a x:p "\q" .`,
	"empty blank label":   `@prefix x: <http://x/> . _: x:p x:b .`,
}

func TestTurtleErrors(t *testing.T) {
	for name, src := range ttlBadDocs {
		if _, err := readAll(NewReader(strings.NewReader(src))); err == nil {
			t.Errorf("%s: Read succeeded, want error", name)
		}
	}
}

func TestTurtleAgainstNTriplesEquivalence(t *testing.T) {
	// The same graph expressed both ways parses identically.
	ttl := `
@prefix x: <http://x/> .
x:s x:p x:o ;
    x:q "lit"@en .
`
	nt := `<http://x/s> <http://x/p> <http://x/o> .
<http://x/s> <http://x/q> "lit"@en .
`
	a := parseTTL(t, ttl)
	b, err := readAll(NewReader(strings.NewReader(nt)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("triple %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTurtleEmpty(t *testing.T) {
	triples := parseTTL(t, "# nothing here\n")
	if len(triples) != 0 {
		t.Errorf("triples = %d", len(triples))
	}
}
