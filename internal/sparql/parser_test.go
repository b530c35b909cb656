package sparql

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"sapphire/internal/rdf"
)

func TestParsePaperIntroQuery(t *testing.T) {
	// The Ivy League query from Section 1 of the paper.
	src := `PREFIX res: <http://dbpedia.org/resource/>
PREFIX dbo: <http://dbpedia.org/ontology/>
SELECT DISTINCT count (?uri) WHERE {
  ?uri rdf:type dbo:Scientist.
  ?uri dbo:almaMater ?university.
  ?university dbo:affiliation res:Ivy_League.
}`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Distinct {
		t.Error("DISTINCT not parsed")
	}
	if len(q.Projections) != 1 || q.Projections[0].Agg != AggCount || q.Projections[0].Var != "uri" {
		t.Errorf("projections = %+v", q.Projections)
	}
	if len(q.Where) != 3 {
		t.Fatalf("patterns = %d, want 3", len(q.Where))
	}
	if q.Where[0].P.Term.Value != rdf.RDFType {
		t.Errorf("rdf:type not expanded: %v", q.Where[0].P)
	}
	if q.Where[2].O.Term.Value != "http://dbpedia.org/resource/Ivy_League" {
		t.Errorf("res: prefix not expanded: %v", q.Where[2].O)
	}
}

func TestParseInitializationQ1(t *testing.T) {
	// Appendix A Q1: predicates by frequency.
	src := `SELECT DISTINCT ?p (COUNT(*) AS ?frequency)
WHERE { ?s ?p ?o }
GROUP BY ?p
ORDER BY DESC(?frequency)`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Projections) != 2 {
		t.Fatalf("projections = %+v", q.Projections)
	}
	if q.Projections[1].Agg != AggCount || q.Projections[1].Var != "" || q.Projections[1].As != "frequency" {
		t.Errorf("aggregate = %+v", q.Projections[1])
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0] != "p" {
		t.Errorf("group by = %v", q.GroupBy)
	}
	if len(q.OrderBy) != 1 || !q.OrderBy[0].Desc || q.OrderBy[0].Var != "frequency" {
		t.Errorf("order by = %+v", q.OrderBy)
	}
}

func TestParseInitializationQ5(t *testing.T) {
	// Appendix A Q5 with filters, LIMIT.
	src := `SELECT DISTINCT ?o
WHERE {
  ?s <http://dbpedia.org/ontology/name> ?o.
  FILTER (isliteral(?o) && lang(?o) = 'en' && strlen(str(?o)) < 80)
}
LIMIT 1`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Filters) != 1 {
		t.Fatalf("filters = %d, want 1", len(q.Filters))
	}
	if q.Limit != 1 {
		t.Errorf("limit = %d", q.Limit)
	}
}

func TestParsePaginationAndOffset(t *testing.T) {
	q, err := Parse(`SELECT ?o WHERE { ?s ?p ?o } LIMIT 100 OFFSET 200`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Limit != 100 || q.Offset != 200 {
		t.Errorf("limit/offset = %d/%d", q.Limit, q.Offset)
	}
}

func TestParseATypeShorthand(t *testing.T) {
	q, err := Parse(`SELECT ?s WHERE { ?s a <http://x/Person> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Where[0].P.Term.Value != rdf.RDFType {
		t.Errorf("'a' not expanded to rdf:type: %v", q.Where[0].P)
	}
}

func TestParseSemicolonContinuation(t *testing.T) {
	q, err := Parse(`SELECT ?n ?b WHERE { ?s <http://x/name> ?n ; <http://x/born> ?b . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 2 {
		t.Fatalf("patterns = %d, want 2", len(q.Where))
	}
	if q.Where[0].S != q.Where[1].S {
		t.Error("semicolon did not share the subject")
	}
}

func TestParseLiteralForms(t *testing.T) {
	q, err := Parse(`SELECT ?s WHERE {
		?s <http://x/name> "Kennedy"@en .
		?s <http://x/age> 42 .
		?s <http://x/height> 1.85 .
		?s <http://x/code> "X"^^<http://www.w3.org/2001/XMLSchema#string> .
		?s <http://x/mass> 1e3 .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Where[0].O.Term.Lang != "en" {
		t.Errorf("lang literal: %v", q.Where[0].O)
	}
	if q.Where[1].O.Term.Datatype != rdf.XSDInteger {
		t.Errorf("int literal: %v", q.Where[1].O)
	}
	// SPARQL §19.8 types a bare number by its form, as Turtle does: a
	// DECIMAL is xsd:decimal, a DOUBLE (with an exponent) xsd:double.
	if q.Where[2].O.Term != rdf.NewTypedLiteral("1.85", rdf.XSDDecimal) {
		t.Errorf("decimal literal: %v", q.Where[2].O)
	}
	if q.Where[3].O.Term.Datatype != rdf.XSDString {
		t.Errorf("typed literal: %v", q.Where[3].O)
	}
	if q.Where[4].O.Term != rdf.NewTypedLiteral("1e3", rdf.XSDDouble) {
		t.Errorf("double literal: %v", q.Where[4].O)
	}
}

// TestParseStringEscapes reads the string escapes SPARQL shares with
// Turtle: UCHAR as well as ECHAR, and a raw line break is an error.
func TestParseStringEscapes(t *testing.T) {
	q, err := Parse(`SELECT ?s WHERE { ?s <http://x/name> "Caf\u00E9"@en . ?s <http://x/q> 'tab\there' . }`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := q.Where[0].O.Term, rdf.NewLangLiteral("Caf\u00e9", "en"); got != want {
		t.Errorf("UCHAR: got %v, want %v", got, want)
	}
	if got := q.Where[1].O.Term.Value; got != "tab\there" {
		t.Errorf("ECHAR: got %q", got)
	}
	for _, src := range []string{
		"SELECT ?s WHERE { ?s ?p \"a\nb\" }",
		`SELECT ?s WHERE { ?s ?p "\uD800" }`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseSelectStar(t *testing.T) {
	q, err := Parse(`SELECT * WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.SelectAll {
		t.Error("SELECT * not recognized")
	}
}

func TestParseComments(t *testing.T) {
	q, err := Parse("# leading comment\nSELECT ?s # trailing\nWHERE { ?s ?p ?o }")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 1 {
		t.Error("comment handling broke parse")
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"no select":             `WHERE { ?s ?p ?o }`,
		"unterminated group":    `SELECT ?s WHERE { ?s ?p ?o`,
		"unknown prefix":        `SELECT ?s WHERE { ?s dbx:name ?o }`,
		"projected not bound":   `SELECT ?x WHERE { ?s ?p ?o }`,
		"agg mix without group": `SELECT ?s (COUNT(?o) AS ?c) WHERE { ?s ?p ?o }`,
		"group by unbound":      `SELECT (COUNT(?o) AS ?c) WHERE { ?s ?p ?o } GROUP BY ?x`,
		"bad limit":             `SELECT ?s WHERE { ?s ?p ?o } LIMIT abc`,
		"literal subject":       `SELECT ?p WHERE { "x" ?p ?o }`,
		"empty where":           `SELECT ?s WHERE { }`,
		"trailing garbage":      `SELECT ?s WHERE { ?s ?p ?o } nonsense ?x`,
		"star in max":           `SELECT (MAX(*) AS ?m) WHERE { ?s ?p ?o }`,
		"order by nothing":      `SELECT ?s WHERE { ?s ?p ?o } ORDER BY`,
		"group by nothing":      `SELECT ?s WHERE { ?s ?p ?o } GROUP BY`,
	}
	for name, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: Parse(%q) succeeded, want error", name, src)
		}
	}
}

func TestParseEmptyWhereEvalError(t *testing.T) {
	// `SELECT ?s WHERE { }` fails validation because ?s is unbound;
	// SELECT * over empty pattern parses but evaluation rejects it.
	q, err := Parse(`SELECT * WHERE { }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Eval(emptyGraph{}, q, Options{}); err == nil {
		t.Error("empty WHERE evaluated without error")
	}
}

// emptyGraph is an IDGraph with no triples.
type emptyGraph struct{}

func (emptyGraph) CardinalityEstimate(s, p, o rdf.Term) int                    { return 0 }
func (emptyGraph) Lookup(t rdf.Term) (uint32, bool)                            { return 0, false }
func (emptyGraph) ResolveID(id uint32) rdf.Term                                { return rdf.Term{} }
func (emptyGraph) PinRead() (release func())                                   { return func() {} }
func (emptyGraph) MatchIDsPinned(s, p, o uint32, fn func(s, p, o uint32) bool) {}
func (emptyGraph) OrderLabels() (label func(id uint32) uint64)                 { return nil }

func TestQueryStringRoundTrip(t *testing.T) {
	srcs := []string{
		`SELECT DISTINCT ?s WHERE { ?s <http://x/p> "v"@en . } LIMIT 5`,
		`SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s <http://x/p> ?o . FILTER (strlen(str(?o)) < 80) }`,
		`SELECT ?s ?o WHERE { ?s <http://x/p> ?o . } ORDER BY DESC(?o) OFFSET 2`,
		`SELECT ?p (COUNT(*) AS ?frequency) WHERE { ?s ?p ?o . } GROUP BY ?p ORDER BY DESC(?frequency)`,
	}
	for _, src := range srcs {
		q1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		q2, err := Parse(q1.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", q1.String(), err)
		}
		if q1.String() != q2.String() {
			t.Errorf("round trip changed query:\n%s\nvs\n%s", q1.String(), q2.String())
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	q := MustParse(`SELECT ?s WHERE { ?s <http://x/p> "orig" . }`)
	c := q.Clone()
	c.Where[0].O = NewTermNode(rdf.NewLiteral("changed"))
	c.Prefixes["new"] = "http://new/"
	if q.Where[0].O.Term.Value != "orig" {
		t.Error("clone shares Where slice")
	}
	if _, ok := q.Prefixes["new"]; ok {
		t.Error("clone shares Prefixes map")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic")
		}
	}()
	MustParse("not sparql at all")
}

func TestNodeAndPatternString(t *testing.T) {
	p := Pattern{S: NewVar("s"), P: NewTermNode(rdf.NewIRI("http://x/p")), O: NewTermNode(rdf.NewLiteral("v"))}
	want := `?s <http://x/p> "v" .`
	if p.String() != want {
		t.Errorf("Pattern.String() = %q, want %q", p.String(), want)
	}
	if got := p.Vars(); len(got) != 1 || got[0] != "s" {
		t.Errorf("Vars = %v", got)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse(`select distinct ?s where { ?s ?p ?o } order by ?s limit 1 offset 0`); err != nil {
		t.Fatal(err)
	}
}

func TestParseFilterComparisonAmbiguity(t *testing.T) {
	// '<' as comparison right before a number, variable, and negative.
	for _, src := range []string{
		`SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER (?a < 10) }`,
		`SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER (?a < ?a) }`,
		`SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER (?a < -5) }`,
		`SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER (?a <= 10) }`,
		`SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER (?a > 10 || ?a < 100) }`,
		`SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(?a<1&&?a>0) }`,
		`SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(?a<=3) }`,
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

// TestLexLessThanOrIRI: '<' opens an IRI exactly when the IRI scanner
// accepts the text there; anything else is '<' or '<='.
func TestLexLessThanOrIRI(t *testing.T) {
	cases := map[string][]token{
		`<x:y>`:              {{kind: tokIRI, text: "x:y"}},
		`<http://x/\u00E9>`:  {{kind: tokIRI, text: "http://x/é"}},
		`<1abc>`:             {{kind: tokOp, text: "<"}, {kind: tokNumber, text: "1"}, {kind: tokIdent, text: "abc"}, {kind: tokOp, text: ">"}},
		`<?x>`:               {{kind: tokOp, text: "<"}, {kind: tokVar, text: "x"}, {kind: tokOp, text: ">"}},
		`1e3 -2.5 .5`:        {{kind: tokNumber, text: "1e3"}, {kind: tokNumber, text: "-2.5"}, {kind: tokNumber, text: ".5"}},
		`"x"@en-GB`:          {{kind: tokString, text: "x"}, {kind: tokLangTag, text: "en-GB"}},
		`"x"^^<http://x/dt>`: {{kind: tokString, text: "x"}, {kind: tokDTSep}, {kind: tokIRI, text: "http://x/dt"}},
	}
	for src, want := range cases {
		toks, err := lexAll(src)
		if err != nil {
			t.Errorf("lexAll(%q): %v", src, err)
			continue
		}
		var got []token
		for _, tok := range toks[:len(toks)-1] {
			got = append(got, token{kind: tok.kind, text: tok.text})
		}
		if !slices.Equal(got, want) {
			t.Errorf("lexAll(%q) = %v, want %v", src, got, want)
		}
	}
}

// TestParseTypedLiteralInFilter: a literal reads the same in a FILTER
// as in a triple pattern, a prefixed-name datatype included.
func TestParseTypedLiteralInFilter(t *testing.T) {
	q, err := Parse(`PREFIX x: <http://x/> SELECT ?s WHERE { ?s ?p "y"^^x:d . FILTER(?p = "y"^^x:d) }`)
	if err != nil {
		t.Fatal(err)
	}
	want := rdf.NewTypedLiteral("y", "http://x/d")
	if q.Where[0].O.Term != want {
		t.Errorf("pattern object %v, want %v", q.Where[0].O, want)
	}
	if got := q.Filters[0].(BinExpr).R; got != (ConstExpr{Term: want}) {
		t.Errorf("filter constant %#v, want %v", got, want)
	}
}

func TestProjectionName(t *testing.T) {
	cases := []struct {
		p    Projection
		want string
	}{
		{Projection{Var: "x"}, "x"},
		{Projection{Var: "x", As: "y"}, "y"},
		{Projection{Agg: AggCount}, "count"},
		{Projection{Agg: AggMax, Var: "v"}, "max"},
	}
	for _, tc := range cases {
		if got := tc.p.Name(); got != tc.want {
			t.Errorf("Name(%+v) = %q, want %q", tc.p, got, tc.want)
		}
	}
}

func TestQueryVarsOrder(t *testing.T) {
	q := MustParse(`SELECT ?b WHERE { ?a <http://x/p> ?b . ?b <http://x/q> ?c . }`)
	got := q.Vars()
	want := []string{"a", "b", "c"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("Vars = %v, want %v", got, want)
	}
}

// TestParseSignedNumberAfterOperand: "?a-1" lexes as ?a and the signed
// number -1, which after an operand subtracts 1 (SPARQL's
// NumericLiteralNegative), with a '*' or '/' chain bound to it. It
// parses and evaluates as "?a - 1" does. A signed number that is not
// after an operand keeps its sign.
func TestParseSignedNumberAfterOperand(t *testing.T) {
	s := buildLibrary(t)
	const where = `SELECT ?b WHERE { ?b <http://x/pages> ?p . FILTER(%s) } ORDER BY ?b`
	for signed, spaced := range map[string]string{
		`?p-300 > 0`:     `?p - 300 > 0`,
		`?p-2*150 > 0`:   `?p - 2*150 > 0`,
		`?p-600/2 > 0`:   `?p - 600/2 > 0`,
		`1-?p+300 > 0`:   `1 - ?p + 300 > 0`,
		`?p-1.5e2-150>0`: `?p - 1.5e2 - 150 > 0`,
	} {
		a, err := Parse(fmt.Sprintf(where, signed))
		if err != nil {
			t.Errorf("Parse FILTER(%s): %v", signed, err)
			continue
		}
		b := mustParseQuery(t, fmt.Sprintf(where, spaced))
		if a.String() != b.String() {
			t.Errorf("FILTER(%s) reads as\n%s\nwant\n%s", signed, a, b)
		}
		ra, rb := eval(t, s, a.String()), eval(t, s, b.String())
		if fmt.Sprint(ra.Rows) != fmt.Sprint(rb.Rows) {
			t.Errorf("FILTER(%s) rows %v, want %v", signed, ra.Rows, rb.Rows)
		}
	}
	for src, want := range map[string]string{
		`SELECT ?s WHERE { ?s <http://x/p> -1 . }`:                   `"-1"^^<http://www.w3.org/2001/XMLSchema#integer>`,
		`SELECT ?s WHERE { ?s <http://x/p> ?a . FILTER(?a > -1) }`:   `FILTER ((?a > -1))`,
		`SELECT ?s WHERE { ?s <http://x/p> ?a . FILTER(?a*-1 > 0) }`: `FILTER (((?a * -1) > 0))`,
	} {
		if got := mustParseQuery(t, src).String(); !strings.Contains(got, want) {
			t.Errorf("Parse(%q) = \n%s\nwant it to hold %s", src, got, want)
		}
	}
}

func mustParseQuery(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}
