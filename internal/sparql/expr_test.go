package sparql

import (
	"strings"
	"testing"

	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

// evalExpr parses a filter expression embedded in a query and evaluates
// it under the given binding, returning the effective boolean value.
func evalExpr(t *testing.T, expr string, b Binding) (bool, error) {
	t.Helper()
	q, err := Parse(`SELECT ?x WHERE { ?x ?p ?o . FILTER (` + expr + `) }`)
	if err != nil {
		t.Fatalf("parse FILTER(%s): %v", expr, err)
	}
	v, err := q.Filters[0].Eval(b)
	if err != nil {
		return false, err
	}
	return v.EffectiveBool()
}

func mustTrue(t *testing.T, expr string, b Binding) {
	t.Helper()
	got, err := evalExpr(t, expr, b)
	if err != nil || !got {
		t.Errorf("FILTER(%s) = %v, %v; want true", expr, got, err)
	}
}

func mustFalse(t *testing.T, expr string, b Binding) {
	t.Helper()
	got, err := evalExpr(t, expr, b)
	if err != nil || got {
		t.Errorf("FILTER(%s) = %v, %v; want false", expr, got, err)
	}
}

func mustErr(t *testing.T, expr string, b Binding) {
	t.Helper()
	if _, err := evalExpr(t, expr, b); err == nil {
		t.Errorf("FILTER(%s) succeeded, want evaluation error", expr)
	}
}

func bnd() Binding {
	return Binding{
		"iri":  rdf.NewIRI("http://x/thing"),
		"lit":  rdf.NewLangLiteral("Hello World", "en"),
		"de":   rdf.NewLangLiteral("Hallo", "de"),
		"num":  rdf.NewTypedLiteral("42", rdf.XSDInteger),
		"dbl":  rdf.NewTypedLiteral("2.5", rdf.XSDDouble),
		"bool": rdf.NewTypedLiteral("true", rdf.XSDBoolean),
		"bn":   rdf.NewBlank("b0"),
		"str":  rdf.NewLiteral("plain"),
	}
}

func TestTypeCheckFunctions(t *testing.T) {
	b := bnd()
	mustTrue(t, "isliteral(?lit)", b)
	mustFalse(t, "isliteral(?iri)", b)
	mustTrue(t, "isiri(?iri)", b)
	mustTrue(t, "isuri(?iri)", b)
	mustFalse(t, "isiri(?lit)", b)
	mustTrue(t, "isblank(?bn)", b)
	mustFalse(t, "isblank(?iri)", b)
	mustTrue(t, "bound(?lit)", b)
	mustFalse(t, "bound(?missing)", b)
}

func TestStringFunctions(t *testing.T) {
	b := bnd()
	mustTrue(t, `lang(?lit) = "en"`, b)
	mustTrue(t, `lang(?str) = ""`, b)
	mustTrue(t, `langmatches(lang(?lit), "EN")`, b)
	mustTrue(t, `langmatches(lang(?lit), "*")`, b)
	mustFalse(t, `langmatches(lang(?str), "*")`, b)
	mustTrue(t, `strlen(str(?lit)) = 11`, b)
	mustTrue(t, `contains(str(?lit), "World")`, b)
	mustFalse(t, `contains(str(?lit), "world")`, b)
	mustTrue(t, `contains(lcase(str(?lit)), "world")`, b)
	mustTrue(t, `ucase(str(?str)) = "PLAIN"`, b)
	mustTrue(t, `strstarts(str(?lit), "Hello")`, b)
	mustTrue(t, `strends(str(?lit), "World")`, b)
	mustFalse(t, `strstarts(str(?lit), "World")`, b)
}

func TestDatatypeFunction(t *testing.T) {
	b := bnd()
	mustTrue(t, `datatype(?num) = <http://www.w3.org/2001/XMLSchema#integer>`, b)
	mustTrue(t, `datatype(?str) = <http://www.w3.org/2001/XMLSchema#string>`, b)
	mustErr(t, `datatype(?iri)`, b)
	mustErr(t, `lang(?iri)`, b)
}

func TestRegexFunction(t *testing.T) {
	b := bnd()
	mustTrue(t, `regex(str(?lit), "^Hello")`, b)
	mustTrue(t, `regex(str(?lit), "hello", "i")`, b)
	mustFalse(t, `regex(str(?lit), "^World")`, b)
	mustErr(t, `regex(str(?lit), "(unclosed")`, b)
}

func TestNumericComparisons(t *testing.T) {
	b := bnd()
	mustTrue(t, "?num > 40", b)
	mustTrue(t, "?num >= 42", b)
	mustTrue(t, "?num <= 42", b)
	mustFalse(t, "?num < 42", b)
	mustTrue(t, "?dbl < ?num", b)
	mustTrue(t, "?num = 42", b)
	mustTrue(t, "?num != 41", b)
}

func TestArithmetic(t *testing.T) {
	b := bnd()
	mustTrue(t, "?num + 8 = 50", b)
	mustTrue(t, "?num - 2 = 40", b)
	mustTrue(t, "?num * 2 = 84", b)
	mustTrue(t, "?num / 2 = 21", b)
	mustTrue(t, "-?num = 0 - 42", b)
	mustErr(t, "?num / 0 = 1", b)
	mustErr(t, "?iri + 1 = 2", b)
}

func TestLogicalOperators(t *testing.T) {
	b := bnd()
	mustTrue(t, "?num = 42 && ?dbl = 2.5", b)
	mustFalse(t, "?num = 42 && ?dbl = 9", b)
	mustTrue(t, "?num = 0 || ?dbl = 2.5", b)
	mustFalse(t, "?num = 0 || ?dbl = 9", b)
	mustTrue(t, "!(?num = 0)", b)
	// SPARQL error tolerance: OR succeeds when one side errors but the
	// other is true; AND fails fast when one side is false.
	mustTrue(t, "?missing = 1 || ?num = 42", b)
	mustFalse(t, "?missing = 1 && ?num = 0", b)
	mustErr(t, "?missing = 1 || ?num = 0", b)
	mustErr(t, "?missing = 1 && ?num = 42", b)
}

func TestEqualitySemantics(t *testing.T) {
	b := bnd()
	// Language tags compare case-insensitively; differing tags differ.
	b["litEN"] = rdf.NewLangLiteral("Hallo", "EN")
	mustFalse(t, "?de = ?litEN", b)
	// Plain literal vs xsd:string-typed literal are value-equal.
	b["typed"] = rdf.NewTypedLiteral("plain", rdf.XSDString)
	mustTrue(t, "?str = ?typed", b)
	// IRIs equal only to themselves.
	mustTrue(t, "?iri = <http://x/thing>", b)
	mustFalse(t, "?iri = <http://x/other>", b)
	// Numeric promotion: integer 42 equals double 42.0.
	b["d42"] = rdf.NewTypedLiteral("42.0", rdf.XSDDouble)
	mustTrue(t, "?num = ?d42", b)
	// But two plain strings that happen to parse numerically compare
	// as strings.
	b["s1"] = rdf.NewLiteral("01")
	b["s2"] = rdf.NewLiteral("1")
	mustFalse(t, "?s1 = ?s2", b)
}

func TestEffectiveBooleanValue(t *testing.T) {
	b := bnd()
	mustTrue(t, "?bool", b)
	b["boolF"] = rdf.NewTypedLiteral("false", rdf.XSDBoolean)
	mustFalse(t, "?boolF", b)
	mustTrue(t, "?num", b) // non-zero number
	b["zero"] = rdf.NewTypedLiteral("0", rdf.XSDInteger)
	mustFalse(t, "?zero", b)
	mustTrue(t, "?str", b) // non-empty string
	b["empty"] = rdf.NewLiteral("")
	mustFalse(t, "?empty", b)
	mustErr(t, "?iri", b) // no EBV for IRIs
	b["nan"] = rdf.NewTypedLiteral("abc", rdf.XSDInteger)
	mustErr(t, "?nan", b)
}

// TestDecimalIsNumeric: xsd:decimal, the type of a bare 2.5 in Turtle
// and SPARQL text, is numeric wherever xsd:double is: its effective
// boolean value is its value's, and equality compares values, not
// lexical forms.
func TestDecimalIsNumeric(t *testing.T) {
	b := bnd()
	b["dec"] = rdf.NewTypedLiteral("2.5", rdf.XSDDecimal)
	b["decZero"] = rdf.NewTypedLiteral("0.0", rdf.XSDDecimal)
	b["decPadded"] = rdf.NewTypedLiteral("02.50", rdf.XSDDecimal)
	mustTrue(t, "?dec", b)
	mustFalse(t, "?decZero", b)
	mustTrue(t, "?decPadded = ?dec", b)
	mustTrue(t, "?dec = ?dbl", b)
	mustTrue(t, "?dec < ?num", b)
}

func TestFunctionArityErrors(t *testing.T) {
	b := bnd()
	mustErr(t, "strlen()", b)
	mustErr(t, `contains(str(?lit))`, b)
	mustErr(t, "unknownfn(?lit)", b)
	mustErr(t, "bound(str(?lit))", b) // bound requires a variable
	mustErr(t, `regex(str(?lit), "a", "i", "extra")`, b)
}

func TestLiteralConstantsInExpressions(t *testing.T) {
	b := bnd()
	mustTrue(t, `?lit = "Hello World"@en`, b)
	mustFalse(t, `?lit = "Hello World"@de`, b)
	mustTrue(t, `?num = "42"^^<http://www.w3.org/2001/XMLSchema#integer>`, b)
}

func TestExprStringRendering(t *testing.T) {
	q := MustParse(`SELECT ?x WHERE { ?x ?p ?o .
		FILTER (isliteral(?o) && strlen(str(?o)) < 80 || !(?x = <http://a>)) }`)
	s := q.Filters[0].String()
	for _, want := range []string{"isliteral(?o)", "strlen", "&&", "||", "!("} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered expr %q missing %q", s, want)
		}
	}
	// Rendered expressions re-parse.
	if _, err := Parse(`SELECT ?x WHERE { ?x ?p ?o . FILTER (` + s + `) }`); err != nil {
		t.Errorf("rendered expr does not re-parse: %v", err)
	}
}

func TestExprVars(t *testing.T) {
	q := MustParse(`SELECT ?x WHERE { ?x ?p ?o .
		FILTER (contains(str(?o), "a") && ?x != <http://b> || bound(?p)) }`)
	set := make(map[string]bool)
	q.Filters[0].ExprVars(set)
	for _, v := range []string{"o", "x", "p"} {
		if !set[v] {
			t.Errorf("ExprVars missing %q: %v", v, set)
		}
	}
}

func TestValueCoercions(t *testing.T) {
	// asStr via comparisons against different value kinds.
	b := bnd()
	mustTrue(t, `str(?num) = "42"`, b)
	mustTrue(t, `str(?iri) = "http://x/thing"`, b)
	mustTrue(t, `str(?bool) = "true"`, b)
	// xsd:boolean literals do not participate in arithmetic.
	mustErr(t, "?bool + 1 = 2", b)
}

// TestFilterStageAllocatesNothing pins the FILTER shapes of the §5
// crawl's literal queries (Q5/Q6 and Q8) to zero allocations per row on
// literal rows: the fixed argument array, rune counting without a
// []rune, and no ParseFloat of two plain strings in lang(?o) = 'en'.
func TestFilterStageAllocatesNothing(t *testing.T) {
	s := store.New()
	subj, name := rdf.NewIRI("http://x/s"), rdf.NewIRI("http://x/name")
	objects := []rdf.Term{
		rdf.NewLangLiteral("Jack Kerouac", "en"), // passes
		rdf.NewLangLiteral("Jack Kerouac", "de"),
		rdf.NewLangLiteral(strings.Repeat("é", 90), "en"),
		rdf.NewTypedLiteral("320", rdf.XSDInteger),
	}
	for _, o := range objects {
		s.MustAdd(rdf.NewTriple(subj, name, o))
	}
	for _, filter := range []string{
		`isliteral(?o) && lang(?o) = 'en' && strlen(str(?o)) < 80`, // Q5, Q6
		`lang(?o) = 'en' && strlen(str(?o)) < 80`,                  // Q8
	} {
		q := MustParse(`SELECT ?o WHERE { ?s ?p ?o . FILTER (` + filter + `) }`)
		pl, err := newPlan(s, q, true)
		if err != nil {
			t.Fatal(err)
		}
		x := &exec{pl: pl, g: s}
		st := x.newFilterStage(q.Filters)
		row := make([]uint32, pl.width())
		row[pl.slots["s"]], _ = s.Lookup(subj)
		row[pl.slots["p"]], _ = s.Lookup(name)
		for i, o := range objects {
			row[pl.slots["o"]], _ = s.Lookup(o)
			if got := x.applyFilterStage(st, row); got != (i == 0) {
				t.Errorf("%s on %s = %v, want %v", filter, o, got, i == 0)
			}
			if n := testing.AllocsPerRun(100, func() { x.applyFilterStage(st, row) }); n != 0 {
				t.Errorf("%s on %s: %v allocations per row, want 0", filter, o, n)
			}
		}
	}
}
