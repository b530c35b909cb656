package sparql

import (
	"fmt"
	"testing"

	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

func benchGraph(people int) *store.Store {
	s := store.New()
	typ := rdf.NewIRI(rdf.RDFType)
	person := rdf.NewIRI("http://x/Person")
	name := rdf.NewIRI("http://x/name")
	knows := rdf.NewIRI("http://x/knows")
	for i := 0; i < people; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/p%d", i))
		s.MustAdd(rdf.NewTriple(subj, typ, person))
		s.MustAdd(rdf.NewTriple(subj, name, rdf.NewLangLiteral(fmt.Sprintf("Person %d", i), "en")))
		s.MustAdd(rdf.NewTriple(subj, knows, rdf.NewIRI(fmt.Sprintf("http://x/p%d", (i+1)%people))))
	}
	return s
}

// BenchmarkEvalTwoHopJoin measures the engine on the workload shape the
// benchmark questions use: entity anchor plus a join.
func BenchmarkEvalTwoHopJoin(b *testing.B) {
	s := benchGraph(2000)
	q := MustParse(`SELECT ?n2 WHERE {
		?p <http://x/name> "Person 42"@en .
		?p <http://x/knows> ?q .
		?q <http://x/name> ?n2 .
	}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(s, q, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalAggregate measures grouped aggregation (Q1's shape).
func BenchmarkEvalAggregate(b *testing.B) {
	s := benchGraph(2000)
	q := MustParse(`SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o . } GROUP BY ?p ORDER BY DESC(?n)`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(s, q, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParse measures query parsing alone.
func BenchmarkParse(b *testing.B) {
	src := `PREFIX dbo: <http://dbpedia.org/ontology/>
SELECT DISTINCT ?b WHERE {
	?b dbo:author ?a . ?a dbo:name "Jack Kerouac"@en .
	?b dbo:numberOfPages ?n . FILTER (?n > 300 && isliteral(?n))
} ORDER BY DESC(?n) LIMIT 10`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalOrderByLimit measures the bounded ORDER BY path on 10k
// rows paged to 10: the top-k heap over uint64 rank labels (labels),
// the same heap over a store that also holds one numeric literal
// (labels-numeric — every served store does, and its key column of
// names must stay on the label path), the heap falling back to memoized
// term compares when no rank table exists (termheap), and the old
// evaluator's strategy of materializing and stable-sorting every row
// (materialize). The label rows are the headline: microseconds against
// the old ~tens of milliseconds. ages pages 10 000 integer ages, a key
// column the labels never decide (both sides numeric): the heap
// compares values parsed once per kept row.
func BenchmarkEvalOrderByLimit(b *testing.B) {
	s := benchGraph(10_000)
	s.BuildOrderLabels()
	sn := benchGraph(10_000)
	sn.MustAdd(rdf.NewTriple(rdf.NewIRI("http://x/p0"), rdf.NewIRI("http://x/age"),
		rdf.NewTypedLiteral("42", rdf.XSDInteger)))
	sn.BuildOrderLabels()
	sa := benchGraph(10_000)
	for i := 0; i < 10_000; i++ {
		sa.MustAdd(rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://x/p%d", i)), rdf.NewIRI("http://x/age"),
			rdf.NewTypedLiteral(fmt.Sprint((i*7919)%100), rdf.XSDInteger)))
	}
	sa.BuildOrderLabels()
	q := MustParse(`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY ?n LIMIT 10`)
	qa := MustParse(`SELECT ?s ?a WHERE { ?s <http://x/age> ?a . } ORDER BY ?a LIMIT 10`)
	run := func(b *testing.B, eval func() (*Results, error)) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eval()
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 10 {
				b.Fatalf("rows = %d", len(res.Rows))
			}
		}
	}
	b.Run("labels", func(b *testing.B) {
		run(b, func() (*Results, error) { return Eval(s, q, Options{}) })
	})
	b.Run("labels-numeric", func(b *testing.B) {
		run(b, func() (*Results, error) { return Eval(sn, q, Options{}) })
	})
	b.Run("ages", func(b *testing.B) {
		run(b, func() (*Results, error) { return Eval(sa, qa, Options{}) })
	})
	b.Run("termheap", func(b *testing.B) {
		g := &countingGraph{Store: s, noLabels: true}
		run(b, func() (*Results, error) { return Eval(g, q, Options{}) })
	})
	b.Run("materialize", func(b *testing.B) {
		run(b, func() (*Results, error) { return refEval(s, q) })
	})
}

// BenchmarkEvalFilterPushdown measures FILTER under LIMIT: the
// streaming pipeline stops scanning the moment enough rows pass the
// filter; the materializing reference filters the full solution set
// first — the gap is what in-pipeline filters buy.
func BenchmarkEvalFilterPushdown(b *testing.B) {
	s := benchGraph(10_000)
	q := MustParse(`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . FILTER (contains(str(?n), "7")) } LIMIT 10`)
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Eval(s, q, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := refEval(s, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEvalJoinOrder measures what stats-driven greedy join
// ordering buys on a query written worst-first (hub pattern, then a
// mid-size scan, then a one-row needle): greedy runs the needle first
// and probes, naive executes the textual order.
func BenchmarkEvalJoinOrder(b *testing.B) {
	s := benchGraph(2000)
	q := MustParse(`SELECT ?s ?o WHERE {
		?s a <http://x/Person> .
		?s <http://x/knows> ?o .
		?s <http://x/name> "Person 42"@en .
	}`)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"greedy", Options{}},
		{"naive", Options{noReorder: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Eval(s, q, tc.opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != 1 {
					b.Fatalf("rows = %d", len(res.Rows))
				}
			}
		})
	}
}

// BenchmarkEvalLimit measures the LIMIT/OFFSET pushdown: a single
// pattern with 10k solutions paged to 10 rows. The pushdown variant
// stops the join after offset+limit rows; the orderby variant cannot
// (ORDER BY needs every row first) and serves as the full-materialize
// reference.
func BenchmarkEvalLimit(b *testing.B) {
	s := benchGraph(10_000)
	cases := []struct{ name, query string }{
		{"pushdown", `SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } LIMIT 10 OFFSET 20`},
		{"orderby", `SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY ?n LIMIT 10 OFFSET 20`},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			q := MustParse(tc.query)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Eval(s, q, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != 10 {
					b.Fatalf("rows = %d", len(res.Rows))
				}
			}
		})
	}
}
