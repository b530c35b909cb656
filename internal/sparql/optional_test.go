package sparql

import (
	"testing"

	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

// optStore builds a graph where some books have publishers and some do
// not — the canonical OPTIONAL case.
func optStore(t testing.TB) *store.Store {
	t.Helper()
	s := store.New()
	iri := func(x string) rdf.Term { return rdf.NewIRI("http://x/" + x) }
	lit := func(x string) rdf.Term { return rdf.NewLiteral(x) }
	add := func(a, p, b rdf.Term) { s.MustAdd(rdf.NewTriple(a, p, b)) }
	add(iri("b1"), iri("title"), lit("With Publisher"))
	add(iri("b1"), iri("publisher"), iri("pub1"))
	add(iri("b2"), iri("title"), lit("Without Publisher"))
	add(iri("b3"), iri("title"), lit("Also Without"))
	add(iri("pub1"), iri("name"), lit("Pub One"))
	// Films for the UNION tests.
	add(iri("f1"), iri("filmTitle"), lit("A Film"))
	add(iri("f2"), iri("filmTitle"), lit("B Film"))
	return s
}

func TestOptionalKeepsUnmatchedRows(t *testing.T) {
	s := optStore(t)
	res := eval(t, s, `SELECT ?t ?p WHERE {
		?b <http://x/title> ?t .
		OPTIONAL { ?b <http://x/publisher> ?p . }
	}`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (left join keeps all books)", len(res.Rows))
	}
	bound, unbound := 0, 0
	for _, row := range res.Rows {
		if _, ok := row["p"]; ok && !row["p"].IsZero() {
			bound++
		} else {
			unbound++
		}
	}
	if bound != 1 || unbound != 2 {
		t.Errorf("bound = %d, unbound = %d", bound, unbound)
	}
}

func TestOptionalChained(t *testing.T) {
	s := optStore(t)
	res := eval(t, s, `SELECT ?t ?n WHERE {
		?b <http://x/title> ?t .
		OPTIONAL { ?b <http://x/publisher> ?p . ?p <http://x/name> ?n . }
	}`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	named := 0
	for _, row := range res.Rows {
		if v, ok := row["n"]; ok && v.Value == "Pub One" {
			named++
		}
	}
	if named != 1 {
		t.Errorf("publisher names resolved = %d, want 1", named)
	}
}

func TestOptionalWithBoundFilter(t *testing.T) {
	s := optStore(t)
	// bound(?p) after OPTIONAL isolates rows that did match.
	res := eval(t, s, `SELECT ?t WHERE {
		?b <http://x/title> ?t .
		OPTIONAL { ?b <http://x/publisher> ?p . }
		FILTER (bound(?p))
	}`)
	if len(res.Rows) != 1 || res.Rows[0]["t"].Value != "With Publisher" {
		t.Errorf("rows = %+v", res.Rows)
	}
	// And !bound for the negation-as-failure idiom.
	res = eval(t, s, `SELECT ?t WHERE {
		?b <http://x/title> ?t .
		OPTIONAL { ?b <http://x/publisher> ?p . }
		FILTER (!bound(?p))
	}`)
	if len(res.Rows) != 2 {
		t.Errorf("unpublished books = %d, want 2", len(res.Rows))
	}
}

func TestUnionCombinesBranches(t *testing.T) {
	s := optStore(t)
	res := eval(t, s, `SELECT ?t WHERE {
		{ ?x <http://x/title> ?t . }
		UNION
		{ ?x <http://x/filmTitle> ?t . }
	}`)
	if len(res.Rows) != 5 {
		t.Fatalf("union rows = %d, want 5 (3 books + 2 films)", len(res.Rows))
	}
}

func TestUnionThreeBranches(t *testing.T) {
	s := optStore(t)
	res := eval(t, s, `SELECT ?v WHERE {
		{ ?x <http://x/title> ?v . }
		UNION
		{ ?x <http://x/filmTitle> ?v . }
		UNION
		{ ?x <http://x/name> ?v . }
	}`)
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
}

func TestUnionWithAggregate(t *testing.T) {
	s := optStore(t)
	res := eval(t, s, `SELECT (COUNT(?t) AS ?n) WHERE {
		{ ?x <http://x/title> ?t . }
		UNION
		{ ?x <http://x/filmTitle> ?t . }
	}`)
	if res.Rows[0]["n"].Value != "5" {
		t.Errorf("count = %s", res.Rows[0]["n"].Value)
	}
}

func TestUnionParseErrors(t *testing.T) {
	bad := []string{
		`SELECT ?t WHERE { { ?x <http://x/a> ?t . } }`,                                                     // lone group, no UNION
		`SELECT ?t WHERE { { ?x <http://x/a> ?t . } UNION }`,                                               // missing branch
		`SELECT ?t WHERE { ?y <http://x/b> ?t . { ?x <http://x/a> ?t . } UNION { ?x <http://x/c> ?t . } }`, // group after triples
		`SELECT ?t WHERE { OPTIONAL { } }`,                                                                 // empty OPTIONAL
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestOptionalUnionStringRoundTrip(t *testing.T) {
	srcs := []string{
		`SELECT ?t WHERE { ?b <http://x/title> ?t . OPTIONAL { ?b <http://x/publisher> ?p . } }`,
		`SELECT ?t WHERE { { ?x <http://x/a> ?t . } UNION { ?x <http://x/b> ?t . } }`,
	}
	for _, src := range srcs {
		q1 := MustParse(src)
		q2 := MustParse(q1.String())
		if q1.String() != q2.String() {
			t.Errorf("round trip changed:\n%s\nvs\n%s", q1, q2)
		}
	}
}

func TestCloneCopiesOptionalsAndUnions(t *testing.T) {
	q := MustParse(`SELECT ?t WHERE { ?b <http://x/title> ?t . OPTIONAL { ?b <http://x/p> ?x . } }`)
	c := q.Clone()
	c.Optionals[0][0].P = NewTermNode(rdf.NewIRI("http://x/changed"))
	if q.Optionals[0][0].P.Term.Value != "http://x/p" {
		t.Error("clone shares Optionals")
	}
	u := MustParse(`SELECT ?t WHERE { { ?x <http://x/a> ?t . } UNION { ?x <http://x/b> ?t . } }`)
	cu := u.Clone()
	cu.UnionGroups[0][0].P = NewTermNode(rdf.NewIRI("http://x/changed"))
	if u.UnionGroups[0][0].P.Term.Value != "http://x/a" {
		t.Error("clone shares UnionGroups")
	}
}

func TestOptionalProjectionValidation(t *testing.T) {
	// Projecting a variable bound only in an OPTIONAL block is legal.
	if _, err := Parse(`SELECT ?p WHERE { ?b <http://x/title> ?t . OPTIONAL { ?b <http://x/pub> ?p . } }`); err != nil {
		t.Errorf("optional-only projection rejected: %v", err)
	}
	// Projecting a variable bound only in a UNION branch is legal.
	if _, err := Parse(`SELECT ?t WHERE { { ?x <http://x/a> ?t . } UNION { ?x <http://x/b> ?t . } }`); err != nil {
		t.Errorf("union projection rejected: %v", err)
	}
}
