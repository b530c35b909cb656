package sparql_test

import (
	"fmt"
	"strings"
	"testing"

	"sapphire/internal/bootstrap"
	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
)

// termTextSeeds are the documents FuzzReader is seeded with (its
// N-Triples and Turtle samples), plus the term forms on the boundary of
// the grammar: UCHAR escapes, language subtags, each number form and
// IRIs whose '<' a less-than guess would misread.
var termTextSeeds = []string{
	"<http://s> <http://p> <http://o> .\n<http://s> <http://p> \"literal\" .\n" +
		"<http://s> <http://p> \"tagged\"@en .\n" +
		"<http://s> <http://p> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n" +
		"_:b0 <http://p> \"from blank\" .\n",
	"@prefix dbo: <http://dbpedia.org/ontology/> .\n@prefix dbr: <http://dbpedia.org/resource/> .\n" +
		"dbr:Jack_Kerouac a dbo:Writer ;\n    dbo:name \"Jack Kerouac\"@en ;\n" +
		"    dbo:birthYear \"1922\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n" +
		"dbr:On_the_Road dbo:author dbr:Jack_Kerouac ;\n    dbo:numberOfPages 320 .\n",
	"@prefix x: <http://x/> . # namespace\nx:a x:p1 \"v1\" ;\n    x:p2 \"v2\", \"v3\" ;\n    .\n" +
		"x:b x:p1 true .\nx:c x:p1 -2.5 .\nx:d x:p1 1e3 .\n",
	`<http://s> <http://p> "Caf\u00E9"@fr .`,
	"@prefix x: <http://x/> .\nx:stevens x:instrument x:guitar, x:piano, x:drums .\n",
	`<http://x/Caf\u00E9> <http://p> "a\tb\"" .`,
	`<urn:x:1> <http://p> "x"@de-CH-1996 .`,
	`<http://s> <http://p> "y"^^<http://x/d> .`,
	"@prefix x: <http://x/> .\nx:s x:p .5, +1, 1.e3, -0.5E-2, 'it\\'s' .\n",
	`<x1:a> <x-y.z+1:p> <z:1abc> .`,
}

// FuzzTermText checks the one term grammar across the text boundary.
// For every triple rdf.Reader returns, each IRI and literal, written
// by Term.String, parses back as the same term in every position of a
// SPARQL triple pattern it may hold (an IRI as subject, predicate and
// object, a literal as object), and the §5 crawl's Q5, Q6 and Q8 built
// from the triple's IRIs parse. Blank nodes are outside the invariant:
// a pattern reads _:x as a variable.
func FuzzTermText(f *testing.F) {
	for _, doc := range termTextSeeds {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		r := rdf.NewReader(strings.NewReader(doc))
		for {
			tr, err := r.Read()
			if err != nil {
				return
			}
			for _, term := range []rdf.Term{tr.S, tr.P, tr.O} {
				checkPositions(t, term)
			}
			mustParse(t, bootstrap.QueryPredicateProbe(tr.P, "en", 80))
			for _, class := range []rdf.Term{tr.S, tr.O} {
				if class.IsIRI() {
					mustParse(t, bootstrap.QueryLiteralsByClass(class, tr.P, "en", 80, 100, 0))
					mustParse(t, bootstrap.QuerySignificantLiterals(class, tr.P, "en", 80, 100, 0))
				}
			}
		}
	})
}

// checkPositions parses term's text in each triple-pattern position it
// may hold and checks that the pattern holds term there.
func checkPositions(t *testing.T, term rdf.Term) {
	if term.IsBlank() {
		return
	}
	for pos, shape := range []string{"%s ?p ?o", "?s %s ?o", "?s ?p %s"} {
		if term.IsLiteral() && pos < 2 {
			continue
		}
		p := mustParse(t, "SELECT * WHERE { "+fmt.Sprintf(shape, term)+" . }").Where[0]
		if got := []sparql.Node{p.S, p.P, p.O}[pos]; got.IsVar() || got.Term != term {
			t.Fatalf("%#v written as %s reads back as %#v", term, term, got)
		}
	}
}

func mustParse(t *testing.T, src string) *sparql.Query {
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	return q
}
