package sparql

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

// fuzzSeedQueries is the FuzzParse seed corpus: every query shape the
// test suite exercises anywhere in the repo (parser, eval, endpoint,
// federation, bootstrap, PUM), plus the malformed inputs the parser
// tests feed on purpose. The fuzzer mutates outward from real usage.
var fuzzSeedQueries = []string{
	// Basic selects, joins, and term forms.
	`SELECT ?s WHERE { ?s ?p ?o . }`,
	`SELECT * WHERE { ?s ?p ?o }`,
	`SELECT * WHERE { }`,
	`SELECT ?s WHERE { ?s a <http://x/Person> . }`,
	`SELECT ?s ?n WHERE { ?s a <http://x/Person> . ?s <http://x/name> ?n . }`,
	`SELECT ?b WHERE { ?b <http://x/author> ?a . ?a <http://x/name> "Jack Kerouac"@en . }`,
	`SELECT ?b WHERE { ?b <http://x/author> <http://x/kerouac> . }`,
	`SELECT ?v WHERE { <http://x/a> <http://x/age> ?v . }`,
	`SELECT ?s WHERE { ?s <http://x/p> "L1" . }`,
	`SELECT ?n ?b WHERE { ?s <http://x/name> ?n ; <http://x/born> ?b . }`,
	`SELECT ?x WHERE { ?x <http://x/knows> ?x . }`,
	// Prefixes.
	"PREFIX dbo: <http://dbpedia.org/ontology/>\nSELECT ?b WHERE { ?b dbo:author ?a . }",
	"PREFIX res: <http://dbpedia.org/resource/>\nPREFIX dbo: <http://dbpedia.org/ontology/>\nSELECT ?w WHERE { res:Tom_Hanks dbo:spouse ?w . }",
	// Modifiers.
	`SELECT DISTINCT ?a WHERE { ?b <http://x/author> ?a . }`,
	`SELECT DISTINCT ?s WHERE { ?s <http://x/p> "v"@en . } LIMIT 5`,
	`SELECT ?n WHERE { ?s <http://x/name> ?n . } LIMIT 10`,
	`SELECT ?b WHERE { ?b <http://x/author> ?a . } OFFSET 100`,
	`SELECT ?o WHERE { ?s ?p ?o } LIMIT 100 OFFSET 200`,
	`SELECT ?s ?o WHERE { ?s <http://x/p> ?o . } ORDER BY DESC(?o) OFFSET 2`,
	`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY ?n LIMIT 3`,
	// Aggregates and grouping.
	`SELECT (COUNT(?s) AS ?n) WHERE { ?s a <http://x/Person> . }`,
	`SELECT (COUNT(*) AS ?n) WHERE { ?b <http://x/nonexistent> ?p . }`,
	`SELECT (COUNT(DISTINCT ?p) AS ?n) WHERE { ?b <http://x/publisher> ?p . }`,
	`SELECT (AVG(?p) AS ?v) WHERE { ?b <http://x/pages> ?p . }`,
	`SELECT (MAX(?p) AS ?v) WHERE { ?b <http://x/pages> ?p . }`,
	`SELECT ?p (COUNT(*) AS ?frequency) WHERE { ?s ?p ?o . } GROUP BY ?p ORDER BY DESC(?frequency)`,
	// Optionals and unions.
	`SELECT ?t WHERE { ?b <http://x/title> ?t . OPTIONAL { ?b <http://x/publisher> ?p . } }`,
	`SELECT ?t WHERE { OPTIONAL { } }`,
	`SELECT ?t WHERE { { ?x <http://x/a> ?t . } UNION { ?x <http://x/b> ?t . } }`,
	`SELECT ?t WHERE { ?y <http://x/b> ?t . { ?x <http://x/a> ?t . } UNION { ?x <http://x/c> ?t . } }`,
	// Filters across the expression grammar.
	`SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER (?a < 10) }`,
	`SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER (?a > 10 || ?a < 100) }`,
	`SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER (?a < -5) }`,
	`SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s <http://x/p> ?o . FILTER (strlen(str(?o)) < 80) }`,
	`SELECT ?x WHERE { ?x ?p ?o . FILTER (langmatches(lang(?o), "EN")) }`,
	`SELECT ?x WHERE { ?x ?p ?o . FILTER (regex(str(?o), "^Hello", "i")) }`,
	`SELECT ?x WHERE { ?x ?p ?o . FILTER (contains(lcase(str(?o)), "world") && ?x != <http://x/a>) }`,
	`SELECT ?x WHERE { ?x ?p ?o . FILTER (!(?o = "x" || isIRI(?x))) }`,
	// Typed and escaped literals.
	`SELECT ?s WHERE { ?s <http://x/age> "42"^^<http://www.w3.org/2001/XMLSchema#integer> . }`,
	`SELECT ?s WHERE { ?s <http://x/q> "line\nbreak \"quoted\" back\\slash" . }`,
	// Modifier combinations the streaming pipeline routes differently
	// (top-k heap vs materialize-sort vs pure streaming slice).
	`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . FILTER (strlen(str(?n)) > 3) } ORDER BY ?n LIMIT 5 OFFSET 2`,
	`SELECT DISTINCT ?n WHERE { ?s <http://x/name> ?n . } ORDER BY DESC(?n)`,
	`SELECT ?s ?n WHERE { ?s a <http://x/Person> . OPTIONAL { ?s <http://x/name> ?n . } FILTER (bound(?n)) } LIMIT 3`,
	`SELECT DISTINCT ?t WHERE { { ?x <http://x/a> ?t . } UNION { ?x <http://x/b> ?t . } } ORDER BY ?t LIMIT 4`,
	`SELECT ?s ?n ?o WHERE { ?s <http://x/name> ?n . ?s <http://x/knows> ?o . } ORDER BY DESC(?n) ?o LIMIT 6`,
	`SELECT ?s WHERE { ?s a <http://x/Person> . } ORDER BY ?s OFFSET 5`,
	`SELECT (COUNT(?s) AS ?c) WHERE { ?s a <http://x/Person> . } GROUP BY ?t ORDER BY ?c LIMIT 2 OFFSET 1`,
	`SELECT DISTINCT ?s WHERE { ?s ?p ?o . FILTER (isIRI(?o)) } ORDER BY DESC(?s) LIMIT 1 OFFSET 0`,
	`SELECT ?a ?b WHERE { ?a <http://x/knows> ?b . OPTIONAL { ?b <http://x/knows> ?a . } } ORDER BY ?b ?a`,
	`SELECT ?t WHERE { { ?x <http://x/a> ?t . } UNION { ?x <http://x/b> ?t . } OPTIONAL { ?t <http://x/c> ?y . } FILTER (?t != <http://x/z>) } ORDER BY DESC(?t) LIMIT 9 OFFSET 3`,
	// Malformed inputs the parser tests pin (seed the error paths too).
	`SELECT ?s WHERE { ?s ?p ?o`,
	`SELECT ?s WHERE { ?s a <`,
	`SELECT ?x WHERE { ?x ?p ?o . FILTER (`,
	`SELECT ?t WHERE { { ?x <http://x/a> ?t . } UNION }`,
	`SELECT ?s WHERE { ?s ?p ?o } LIMIT abc`,
	`SELECT ?s WHERE { ?s ?p ?o } GROUP BY`,
	`SELECT ?s WHERE { ?s ?p ?o } nonsense ?x`,
	`SELECT ?p WHERE { "x" ?p ?o }`,
	`SELECT (MAX(*) AS ?m) WHERE { ?s ?p ?o }`,
	`SELECT ?s WHERE { ?s dbx:name ?o }`,
}

// FuzzParse is the parser's crash-and-round-trip battery. For any
// input: Parse must not panic. For inputs Parse accepts, the canonical
// serialization (Query.String, the text /run hands back as a
// suggestion) must re-parse, and re-serializing the re-parse must
// reproduce it byte-for-byte — String is a fixed point after one
// canonicalization. If that ever breaks, a suggested query could fail
// to parse when a client sends it back, or send back a different
// text, and so a different result-cache key, each time.
func FuzzParse(f *testing.F) {
	for _, q := range fuzzSeedQueries {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		s1 := q.String()
		q2, err := Parse(s1)
		if err != nil {
			t.Fatalf("canonical form does not re-parse\ninput: %q\ncanonical: %q\nerr: %v", src, s1, err)
		}
		s2 := q2.String()
		if s1 != s2 {
			t.Fatalf("canonicalization is not a fixed point\ninput: %q\nfirst:  %q\nsecond: %q", src, s1, s2)
		}
	})
}

// TestFuzzSeedsRoundTrip runs the full seed corpus through the fuzz
// oracle unconditionally (go test never skips it, no -fuzz flag
// needed), so the round-trip property is pinned for every query shape
// in the repo even on runs without the fuzzing engine.
func TestFuzzSeedsRoundTrip(t *testing.T) {
	for _, src := range fuzzSeedQueries {
		q, err := Parse(src)
		if err != nil {
			continue
		}
		s1 := q.String()
		q2, err := Parse(s1)
		if err != nil {
			t.Errorf("canonical form of %q does not re-parse: %v\ncanonical: %s", src, err, s1)
			continue
		}
		if s2 := q2.String(); s1 != s2 {
			t.Errorf("not a fixed point for %q:\nfirst:  %s\nsecond: %s", src, s1, s2)
		}
	}
	// Sanity: the corpus must contain both parseable and malformed
	// seeds, or the oracle is exercising only half its paths.
	parseable := 0
	for _, src := range fuzzSeedQueries {
		if _, err := Parse(src); err == nil {
			parseable++
		}
	}
	if parseable == 0 || parseable == len(fuzzSeedQueries) {
		t.Errorf("corpus balance off: %d/%d parseable", parseable, len(fuzzSeedQueries))
	}
}

// orderLabelSeeds are lexical forms at the edges of "numeric literal":
// digit strings whose term order and value order disagree, ParseFloat's
// other spellings (signed zero, bare fraction, exponent, hex float,
// Inf, infinity, NaN), a word that only starts like NaN, and the empty
// form.
var orderLabelSeeds = []string{"9", "10", "-0", "+.5", "1e3", "0x1p-2", "Inf", "infinity", "NaN", "Nancy", "", "x"}

// FuzzOrderLabelsAgreeWithComparator checks the invariant the top-k
// heap's label path rests on: for every pair of labeled terms that
// compareLabels decides, its sign equals compareOrder's. Each
// input adds two lexical forms to the seed forms, and every form is
// interned as a plain, language-tagged, xsd:integer and xsd:double
// literal, an IRI and a blank node, so kinds, tags and datatypes mix.
// The property is pairwise on purpose: NaN ties every number under the
// comparator, which makes it non-transitive, so no input is filtered
// out and no total order is asked for.
func FuzzOrderLabelsAgreeWithComparator(f *testing.F) {
	for i := 0; i+1 < len(orderLabelSeeds); i += 2 {
		f.Add(orderLabelSeeds[i], orderLabelSeeds[i+1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		s := store.New()
		subj, pred := rdf.NewIRI("http://x/s"), rdf.NewIRI("http://x/p")
		var terms []rdf.Term
		for _, lex := range append([]string{a, b}, orderLabelSeeds...) {
			for _, term := range []rdf.Term{
				rdf.NewLiteral(lex),
				rdf.NewLangLiteral(lex, "en"),
				rdf.NewTypedLiteral(lex, rdf.XSDInteger),
				rdf.NewTypedLiteral(lex, rdf.XSDDouble),
				rdf.NewIRI(lex),
				rdf.NewBlank(lex),
			} {
				s.MustAdd(rdf.NewTriple(subj, pred, term))
				terms = append(terms, term)
			}
		}
		s.BuildOrderLabels()
		label := s.OrderLabels()
		labs := make([]uint64, len(terms))
		for i, term := range terms {
			id, ok := s.Lookup(term)
			if !ok {
				t.Fatalf("interned term %s not found", term)
			}
			if labs[i] = label(id); labs[i] == 0 {
				t.Fatalf("term %s unlabeled after BuildOrderLabels", term)
			}
		}
		for i, ti := range terms {
			for j, tj := range terms {
				c, ok := compareLabels(labs[i], labs[j])
				if !ok {
					continue // the heap compares these terms itself
				}
				oi, oj := newOrderTerm(ti), newOrderTerm(tj)
				if want := compareOrder(&oi, &oj); c != want {
					t.Fatalf("labels order %s vs %s as %d, ORDER BY comparator as %d", ti, tj, c, want)
				}
			}
		}
	})
}

// aggFuzzObjects is the object pool of FuzzAggregateAgreesWithReference's
// graphs: IRIs, language-tagged literals, integers, doubles, a plain
// literal that parses as a number and plain ones that do not, so SUM,
// AVG, MIN and MAX meet non-numeric values.
// The numbers come first: most objects are drawn from them, so most
// numeric aggregates have a value to fold and some fail.
var aggFuzzObjects = []rdf.Term{
	rdf.NewTypedLiteral("1", rdf.XSDInteger), rdf.NewTypedLiteral("10", rdf.XSDInteger),
	rdf.NewTypedLiteral("-3", rdf.XSDInteger), rdf.NewTypedLiteral("2.5", rdf.XSDDouble),
	rdf.NewTypedLiteral("1e3", rdf.XSDDouble), rdf.NewLiteral("7"),
	rdf.NewIRI("http://x/s0"), rdf.NewIRI("http://x/s1"), rdf.NewIRI("http://x/s2"),
	rdf.NewLangLiteral("a", "en"), rdf.NewLangLiteral("b", "de"), rdf.NewLangLiteral("A", "en"),
	rdf.NewLiteral("x"),
}

// byteChooser turns fuzz bytes into choices; exhausted, it answers 0.
type byteChooser []byte

func (c *byteChooser) pick(n int) int {
	if len(*c) == 0 {
		return 0
	}
	b := (*c)[0]
	*c = (*c)[1:]
	return int(b) % n
}

// aggFuzzCase builds a small graph and one aggregate query from data:
// 0–2 GROUP BY variables, one of them possibly left unbound by an
// OPTIONAL, every aggregate kind (COUNT DISTINCT included), DISTINCT,
// ORDER BY an alias or a grouped variable ASC or DESC, LIMIT (0
// included) and OFFSET, and patterns that may match nothing.
func aggFuzzCase(data []byte) (*store.Store, string) {
	c := byteChooser(data)
	preds := []string{"http://x/k", "http://x/v", "http://x/w"}
	s := store.New()
	subjects := aggFuzzObjects[6:9]
	for n := c.pick(24); n > 0; n-- {
		o := aggFuzzObjects[c.pick(6)]
		if c.pick(4) == 0 {
			o = aggFuzzObjects[c.pick(len(aggFuzzObjects))]
		}
		s.MustAdd(rdf.NewTriple(subjects[c.pick(3)], rdf.NewIRI(preds[c.pick(3)]), o))
	}
	where := fmt.Sprintf("?s <%s> ?a .", append(preds, preds[1], "http://x/none")[c.pick(5)])
	vars := []string{"s", "a"}
	if c.pick(2) == 1 {
		where += fmt.Sprintf(" OPTIONAL { ?%s <%s> ?b . }", vars[c.pick(2)], preds[c.pick(3)])
		vars = append(vars, "b")
	}
	var group, proj, names []string
	for n := c.pick(3); n > 0; n-- {
		if v := vars[c.pick(len(vars))]; !slices.Contains(group, v) {
			group = append(group, v)
			proj = append(proj, "?"+v)
			names = append(names, v)
		}
	}
	for i, n := 0, 1+c.pick(3); i < n; i++ {
		alias := fmt.Sprintf("c%d", i)
		v := vars[c.pick(len(vars))]
		if c.pick(4) != 0 { // mostly a value variable, not the subject
			v = vars[len(vars)-1]
		}
		agg := []string{"COUNT(*)", "COUNT(?" + v + ")", "COUNT(DISTINCT ?" + v + ")",
			"SUM(?" + v + ")", "AVG(?" + v + ")", "MIN(?" + v + ")", "MAX(?" + v + ")"}[c.pick(7)]
		proj = append(proj, fmt.Sprintf("(%s AS ?%s)", agg, alias))
		names = append(names, alias)
	}
	q := "SELECT "
	if c.pick(2) == 1 {
		q += "DISTINCT "
	}
	q += strings.Join(proj, " ") + " WHERE { " + where + " }"
	if len(group) > 0 {
		q += " GROUP BY ?" + strings.Join(group, " ?")
	}
	if n := c.pick(3); n > 0 {
		q += " ORDER BY"
		for ; n > 0; n-- {
			if key := "?" + names[c.pick(len(names))]; c.pick(2) == 1 {
				q += " DESC(" + key + ")"
			} else {
				q += " " + key
			}
		}
	}
	if c.pick(2) == 1 {
		q += fmt.Sprintf(" LIMIT %d", c.pick(4))
	}
	if c.pick(2) == 1 {
		q += fmt.Sprintf(" OFFSET %d", c.pick(3))
	}
	return s, q
}

// FuzzAggregateAgreesWithReference checks the grouping sink against the
// reference evaluator's map-row grouping on generated graphs and
// aggregate queries: the same rows in the same order byte for byte, or
// the same error.
func FuzzAggregateAgreesWithReference(f *testing.F) {
	f.Add([]byte{})
	for seed := int64(0); seed < 48; seed++ {
		data := make([]byte, 96)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, qs := aggFuzzCase(data)
		q, err := Parse(qs)
		if err != nil {
			t.Fatalf("generated query does not parse: %v\n%s", err, qs)
		}
		got, gerr := Eval(s, q, Options{})
		want, werr := refEval(s, q)
		if gerr != nil || werr != nil {
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s\nerror %v, reference %v", qs, gerr, werr)
			}
			return
		}
		if gd, wd := dumpOrdered(got), dumpOrdered(want); gd != wd {
			t.Fatalf("%s\n--- streaming ---\n%s\n--- reference ---\n%s", qs, gd, wd)
		}
	})
}
