package sparql

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

// buildLibrary builds the Jack Kerouac example graph from Figure 6 of the
// paper plus a few extra entities to exercise joins and aggregates.
func buildLibrary(t testing.TB) *store.Store {
	t.Helper()
	s := store.New()
	iri := func(x string) rdf.Term { return rdf.NewIRI("http://x/" + x) }
	en := func(x string) rdf.Term { return rdf.NewLangLiteral(x, "en") }
	num := func(x string) rdf.Term { return rdf.NewTypedLiteral(x, rdf.XSDInteger) }
	typ := rdf.NewIRI(rdf.RDFType)

	add := func(s0, p, o rdf.Term) {
		s.MustAdd(rdf.NewTriple(s0, p, o))
	}
	// Authors and publishers.
	add(iri("kerouac"), typ, iri("Writer"))
	add(iri("kerouac"), iri("name"), en("Jack Kerouac"))
	add(iri("viking"), typ, iri("Publisher"))
	add(iri("viking"), iri("label"), en("Viking Press"))
	add(iri("grove"), typ, iri("Publisher"))
	add(iri("grove"), iri("label"), en("Grove Press"))
	// Books.
	add(iri("ontheroad"), typ, iri("Book"))
	add(iri("ontheroad"), iri("author"), iri("kerouac"))
	add(iri("ontheroad"), iri("publisher"), iri("viking"))
	add(iri("ontheroad"), iri("name"), en("On The Road"))
	add(iri("ontheroad"), iri("pages"), num("320"))
	add(iri("doorwideopen"), typ, iri("Book"))
	add(iri("doorwideopen"), iri("author"), iri("kerouac"))
	add(iri("doorwideopen"), iri("publisher"), iri("viking"))
	add(iri("doorwideopen"), iri("name"), en("Door Wide Open"))
	add(iri("doorwideopen"), iri("pages"), num("200"))
	add(iri("doctorsax"), typ, iri("Book"))
	add(iri("doctorsax"), iri("author"), iri("kerouac"))
	add(iri("doctorsax"), iri("publisher"), iri("grove"))
	add(iri("doctorsax"), iri("name"), en("Doctor Sax"))
	add(iri("doctorsax"), iri("pages"), num("250"))
	// A movie sharing the name.
	add(iri("bigsur_movie"), typ, iri("Movie"))
	add(iri("bigsur_movie"), iri("name"), en("Big Sur"))
	add(iri("bigsur_movie"), iri("writer"), iri("kerouac"))
	return s
}

func eval(t testing.TB, s *store.Store, src string) *Results {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	res, err := Eval(s, q, Options{})
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return res
}

func TestEvalSinglePattern(t *testing.T) {
	s := buildLibrary(t)
	res := eval(t, s, `SELECT ?b WHERE { ?b <http://x/author> <http://x/kerouac> . }`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
}

func TestEvalJoin(t *testing.T) {
	s := buildLibrary(t)
	// Books by Kerouac published by Viking Press — the paper's difficult
	// question B.3.
	res := eval(t, s, `SELECT ?name WHERE {
		?b <http://x/author> ?a .
		?a <http://x/name> "Jack Kerouac"@en .
		?b <http://x/publisher> ?p .
		?p <http://x/label> "Viking Press"@en .
		?b <http://x/name> ?name .
	}`)
	got := res.Sorted()
	if len(got) != 2 {
		t.Fatalf("rows = %v, want 2", got)
	}
	if got[0] != `"Door Wide Open"@en` || got[1] != `"On The Road"@en` {
		t.Errorf("rows = %v", got)
	}
}

func TestEvalNoAnswers(t *testing.T) {
	s := buildLibrary(t)
	// The "Kennedys" scenario: misspelled literal returns zero rows.
	res := eval(t, s, `SELECT ?b WHERE {
		?b <http://x/author> ?a .
		?a <http://x/name> "Jack Kerouacs"@en .
	}`)
	if len(res.Rows) != 0 {
		t.Errorf("rows = %d, want 0", len(res.Rows))
	}
}

func TestEvalCountDistinct(t *testing.T) {
	s := buildLibrary(t)
	res := eval(t, s, `SELECT (COUNT(DISTINCT ?p) AS ?n) WHERE { ?b <http://x/publisher> ?p . }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if got := res.Rows[0]["n"].Value; got != "2" {
		t.Errorf("count = %s, want 2", got)
	}
}

func TestEvalCountStarOnEmpty(t *testing.T) {
	s := buildLibrary(t)
	res := eval(t, s, `SELECT (COUNT(*) AS ?n) WHERE { ?b <http://x/nonexistent> ?p . }`)
	if len(res.Rows) != 1 || res.Rows[0]["n"].Value != "0" {
		t.Errorf("COUNT over empty = %+v", res.Rows)
	}
}

func TestEvalGroupBy(t *testing.T) {
	s := buildLibrary(t)
	res := eval(t, s, `SELECT ?p (COUNT(?b) AS ?n) WHERE { ?b <http://x/publisher> ?p . }
		GROUP BY ?p ORDER BY DESC(?n)`)
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d, want 2", len(res.Rows))
	}
	if res.Rows[0]["p"].Value != "http://x/viking" || res.Rows[0]["n"].Value != "2" {
		t.Errorf("top group = %+v", res.Rows[0])
	}
	if res.Rows[1]["n"].Value != "1" {
		t.Errorf("second group = %+v", res.Rows[1])
	}
}

func TestEvalNumericAggregates(t *testing.T) {
	s := buildLibrary(t)
	for _, tc := range []struct {
		agg, want string
	}{
		{"MAX", "320"}, {"MIN", "200"}, {"SUM", "770"},
	} {
		res := eval(t, s, fmt.Sprintf(`SELECT (%s(?p) AS ?v) WHERE { ?b <http://x/pages> ?p . }`, tc.agg))
		if res.Rows[0]["v"].Value != tc.want {
			t.Errorf("%s = %s, want %s", tc.agg, res.Rows[0]["v"].Value, tc.want)
		}
	}
	res := eval(t, s, `SELECT (AVG(?p) AS ?v) WHERE { ?b <http://x/pages> ?p . }`)
	if got := res.Rows[0]["v"].Value; got != "256.6666666666667" {
		t.Errorf("AVG = %s", got)
	}
}

func TestEvalFilterNumeric(t *testing.T) {
	s := buildLibrary(t)
	// Books with more than 300 pages — shape of question B.2.
	res := eval(t, s, `SELECT ?name WHERE {
		?b <http://x/pages> ?p .
		?b <http://x/name> ?name .
		FILTER (?p > 300)
	}`)
	if len(res.Rows) != 1 || res.Rows[0]["name"].Value != "On The Road" {
		t.Errorf("rows = %+v", res.Rows)
	}
}

func TestEvalFilterStringFunctions(t *testing.T) {
	s := buildLibrary(t)
	res := eval(t, s, `SELECT ?name WHERE {
		?b <http://x/name> ?name .
		FILTER (contains(str(?name), "Door") && lang(?name) = "en")
	}`)
	if len(res.Rows) != 1 || res.Rows[0]["name"].Value != "Door Wide Open" {
		t.Errorf("rows = %+v", res.Rows)
	}
	res = eval(t, s, `SELECT ?name WHERE {
		?b <http://x/name> ?name .
		FILTER (regex(str(?name), "^on the road$", "i"))
	}`)
	if len(res.Rows) != 1 {
		t.Errorf("regex rows = %+v", res.Rows)
	}
}

func TestEvalFilterIsLiteralLangStrlen(t *testing.T) {
	s := buildLibrary(t)
	// The exact Q5-shaped filter used during initialization.
	res := eval(t, s, `SELECT DISTINCT ?o WHERE {
		?s <http://x/name> ?o .
		FILTER (isliteral(?o) && lang(?o) = 'en' && strlen(str(?o)) < 80)
	}`)
	if len(res.Rows) != 5 {
		t.Errorf("rows = %d, want 5 distinct names", len(res.Rows))
	}
}

func TestEvalOrderLimitOffset(t *testing.T) {
	s := buildLibrary(t)
	res := eval(t, s, `SELECT ?name ?p WHERE {
		?b <http://x/pages> ?p . ?b <http://x/name> ?name .
	} ORDER BY DESC(?p) LIMIT 2`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0]["name"].Value != "On The Road" || res.Rows[1]["name"].Value != "Doctor Sax" {
		t.Errorf("order wrong: %+v", res.Rows)
	}
	res = eval(t, s, `SELECT ?name ?p WHERE {
		?b <http://x/pages> ?p . ?b <http://x/name> ?name .
	} ORDER BY ?p OFFSET 2`)
	if len(res.Rows) != 1 || res.Rows[0]["name"].Value != "On The Road" {
		t.Errorf("offset wrong: %+v", res.Rows)
	}
}

func TestEvalOffsetBeyondEnd(t *testing.T) {
	s := buildLibrary(t)
	res := eval(t, s, `SELECT ?b WHERE { ?b <http://x/author> ?a . } OFFSET 100`)
	if len(res.Rows) != 0 {
		t.Errorf("rows = %d, want 0", len(res.Rows))
	}
}

func TestEvalDistinct(t *testing.T) {
	s := buildLibrary(t)
	with := eval(t, s, `SELECT DISTINCT ?a WHERE { ?b <http://x/author> ?a . }`)
	without := eval(t, s, `SELECT ?a WHERE { ?b <http://x/author> ?a . }`)
	if len(with.Rows) != 1 || len(without.Rows) != 3 {
		t.Errorf("distinct = %d, plain = %d; want 1 and 3", len(with.Rows), len(without.Rows))
	}
}

func TestEvalSelectStar(t *testing.T) {
	s := buildLibrary(t)
	res := eval(t, s, `SELECT * WHERE { ?b <http://x/author> ?a . }`)
	if len(res.Vars) != 2 {
		t.Errorf("vars = %v", res.Vars)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestEvalSharedVariableConstraint(t *testing.T) {
	s := buildLibrary(t)
	// Self-join shape: ?x writer ?a and ?x name ?n must agree on ?x.
	res := eval(t, s, `SELECT ?n WHERE {
		?x <http://x/writer> ?a .
		?x <http://x/name> ?n .
	}`)
	if len(res.Rows) != 1 || res.Rows[0]["n"].Value != "Big Sur" {
		t.Errorf("rows = %+v", res.Rows)
	}
}

func TestEvalSameVariableTwiceInPattern(t *testing.T) {
	s := store.New()
	iri := func(x string) rdf.Term { return rdf.NewIRI("http://x/" + x) }
	s.MustAdd(rdf.NewTriple(iri("a"), iri("knows"), iri("a")))
	s.MustAdd(rdf.NewTriple(iri("a"), iri("knows"), iri("b")))
	res := eval(t, s, `SELECT ?x WHERE { ?x <http://x/knows> ?x . }`)
	if len(res.Rows) != 1 || res.Rows[0]["x"].Value != "http://x/a" {
		t.Errorf("self-loop rows = %+v", res.Rows)
	}
}

func TestEvalBudgetAborts(t *testing.T) {
	s := buildLibrary(t)
	q := MustParse(`SELECT ?s WHERE { ?s ?p ?o . }`)
	calls := 0
	wantErr := errors.New("timeout")
	_, err := Eval(s, q, Options{Budget: func() error {
		calls++
		if calls > 5 {
			return wantErr
		}
		return nil
	}})
	if !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want budget error", err)
	}
}

func TestEvalVariablePredicate(t *testing.T) {
	s := buildLibrary(t)
	res := eval(t, s, `SELECT DISTINCT ?p WHERE { <http://x/ontheroad> ?p ?o . }`)
	if len(res.Rows) != 5 {
		t.Errorf("predicates = %d, want 5", len(res.Rows))
	}
}

func TestEvalCartesianProduct(t *testing.T) {
	s := store.New()
	iri := func(x string) rdf.Term { return rdf.NewIRI("http://x/" + x) }
	lit := func(x string) rdf.Term { return rdf.NewLiteral(x) }
	s.MustAdd(rdf.NewTriple(iri("a"), iri("p"), lit("1")))
	s.MustAdd(rdf.NewTriple(iri("b"), iri("q"), lit("2")))
	res := eval(t, s, `SELECT ?x ?y WHERE { ?x <http://x/p> ?o1 . ?y <http://x/q> ?o2 . }`)
	if len(res.Rows) != 1 {
		t.Errorf("cartesian rows = %d, want 1", len(res.Rows))
	}
}

func TestEvalDeterministicOrderWithoutOrderBy(t *testing.T) {
	s := buildLibrary(t)
	a := eval(t, s, `SELECT ?b ?name WHERE { ?b <http://x/name> ?name . }`)
	for i := 0; i < 5; i++ {
		b := eval(t, s, `SELECT ?b ?name WHERE { ?b <http://x/name> ?name . }`)
		for j := range a.Rows {
			if rowKey(a.Rows[j], a.Vars) != rowKey(b.Rows[j], b.Vars) {
				t.Fatalf("row %d differs between runs", j)
			}
		}
	}
}

func TestEvalIvyLeagueShape(t *testing.T) {
	// Reproduce the intro query shape end to end on a small graph.
	s := store.New()
	iri := func(x string) rdf.Term { return rdf.NewIRI("http://x/" + x) }
	typ := rdf.NewIRI(rdf.RDFType)
	add := func(a, b, c rdf.Term) { s.MustAdd(rdf.NewTriple(a, b, c)) }
	add(iri("einstein"), typ, iri("Scientist"))
	add(iri("einstein"), iri("almaMater"), iri("princeton"))
	add(iri("feynman"), typ, iri("Scientist"))
	add(iri("feynman"), iri("almaMater"), iri("mit"))
	add(iri("princeton"), iri("affiliation"), iri("IvyLeague"))
	add(iri("turing"), typ, iri("Scientist"))
	add(iri("turing"), iri("almaMater"), iri("princeton"))
	res := eval(t, s, `SELECT DISTINCT (COUNT(?uri) AS ?n) WHERE {
		?uri a <http://x/Scientist> .
		?uri <http://x/almaMater> ?u .
		?u <http://x/affiliation> <http://x/IvyLeague> .
	}`)
	if res.Rows[0]["n"].Value != "2" {
		t.Errorf("count = %s, want 2", res.Rows[0]["n"].Value)
	}
}

func TestResultsSorted(t *testing.T) {
	s := buildLibrary(t)
	res := eval(t, s, `SELECT ?name WHERE { ?b <http://x/name> ?name . }`)
	sorted := res.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i] < sorted[i-1] {
			t.Fatal("Sorted() not sorted")
		}
	}
}

// TestRepeatedVariableInPattern pins the repeated-unbound-variable rule
// (?x ?p ?x must bind both occurrences to the same term) on the ID join
// path and the Term fallback alike.
func TestRepeatedVariableInPattern(t *testing.T) {
	s := store.New()
	iri := func(x string) rdf.Term { return rdf.NewIRI("http://x/" + x) }
	s.MustAdd(rdf.NewTriple(iri("narcissus"), iri("admires"), iri("narcissus")))
	s.MustAdd(rdf.NewTriple(iri("narcissus"), iri("admires"), iri("echo")))
	s.MustAdd(rdf.NewTriple(iri("echo"), iri("admires"), iri("narcissus")))
	s.MustAdd(rdf.NewTriple(iri("narcissus"), iri("kind"), iri("Nymph")))
	s.MustAdd(rdf.NewTriple(iri("echo"), iri("kind"), iri("Nymph")))

	// Two patterns so the graph takes the ID fast path.
	res := eval(t, s, `SELECT ?x WHERE { ?x <http://x/admires> ?x . ?x <http://x/kind> <http://x/Nymph> . }`)
	got := res.Sorted()
	if len(got) != 1 || got[0] != "<http://x/narcissus>" {
		t.Fatalf("self-join rows = %v, want only narcissus", got)
	}

	// Repeated variable across positions with no self-loop match.
	res = eval(t, s, `SELECT ?x WHERE { ?x <http://x/admires> ?x . ?x <http://x/kind> <http://x/Naiad> . }`)
	if len(res.Rows) != 0 {
		t.Fatalf("expected no rows, got %v", res.Sorted())
	}
}

// TestEvalConcurrentWithAdd guards against the evaluator re-locking the
// store from inside a Match/MatchIDs callback: with a writer queued on
// the store mutex, a nested RLock deadlocks (sync.RWMutex blocks new
// readers once a writer waits). The watchdog fails fast instead of
// hanging the suite.
func TestEvalConcurrentWithAdd(t *testing.T) {
	s := store.New()
	iri := func(x string) rdf.Term { return rdf.NewIRI("http://x/" + x) }
	for i := 0; i < 500; i++ {
		subj := iri(fmt.Sprintf("s%d", i))
		s.MustAdd(rdf.NewTriple(subj, iri("p"), iri("hub")))
		s.MustAdd(rdf.NewTriple(subj, iri("q"), iri(fmt.Sprintf("v%d", i))))
	}
	q := MustParse(`SELECT ?s ?o WHERE { ?s <http://x/p> <http://x/hub> . ?s <http://x/q> ?o . }`)
	stop := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.MustAdd(rdf.NewTriple(iri(fmt.Sprintf("w%d", i)), iri("p"), iri("hub")))
		}
	}()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			if _, err := Eval(s, q, Options{}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		close(stop)
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		close(stop)
		t.Fatal("evaluation deadlocked against concurrent Add")
	}
}

// TestParallelConcurrentCommits is the -race stressor for concurrent
// readers on an 8-shard store: queries run from several goroutines while
// a writer interleaves online Adds, staged bulk commits and rank-table
// rebuilds. Every evaluation pins one store state, so queries must never
// error; the race detector checks the rest (scans vs publication, shared
// budget, rank table swaps). The watchdog fails fast instead of hanging
// the suite.
func TestParallelConcurrentCommits(t *testing.T) {
	s := store.NewSharded(8)
	typ := rdf.NewIRI(rdf.RDFType)
	person := rdf.NewIRI("http://x/Person")
	name := rdf.NewIRI("http://x/name")
	knows := rdf.NewIRI("http://x/knows")
	addSubject := func(add func(rdf.Triple), i int) {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/p%d", i))
		add(rdf.NewTriple(subj, typ, person))
		add(rdf.NewTriple(subj, name, rdf.NewLangLiteral(fmt.Sprintf("Person %d", i), "en")))
		add(rdf.NewTriple(subj, knows, rdf.NewIRI(fmt.Sprintf("http://x/p%d", i/2))))
	}
	for i := 0; i < 400; i++ {
		addSubject(s.MustAdd, i)
	}
	s.BuildOrderLabels()

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		loader := store.NewBulkLoader(s)
		next := 400
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			if round%3 == 0 {
				for b := 0; b < 5; b++ {
					addSubject(loader.MustAdd, next)
					next++
				}
				loader.Commit()
			} else {
				addSubject(s.MustAdd, next)
				next++
			}
			if round%10 == 0 {
				s.BuildOrderLabels()
			}
		}
	}()
	defer func() {
		close(stop)
		writer.Wait()
	}()

	queries := []string{
		`SELECT ?s ?n WHERE { ?s a <http://x/Person> . ?s <http://x/name> ?n . } LIMIT 50`,
		`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY DESC(?n) LIMIT 12`,
		`SELECT DISTINCT ?t WHERE { ?s <http://x/knows> ?t . ?t <http://x/name> ?n . }`,
		`SELECT (COUNT(?s) AS ?c) WHERE { ?s a <http://x/Person> . }`,
	}
	const readers = 4
	done := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			for i := 0; i < 25; i++ {
				src := queries[(r+i)%len(queries)]
				res, err := Eval(s, MustParse(src), Options{Budget: func() error { return nil }})
				if err != nil {
					done <- fmt.Errorf("reader %d: %q: %w", r, src, err)
					return
				}
				if res == nil {
					done <- fmt.Errorf("reader %d: %q: nil results", r, src)
					return
				}
			}
			done <- nil
		}(r)
	}
	watchdog := time.After(30 * time.Second)
	for r := 0; r < readers; r++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-watchdog:
			t.Fatal("evaluation deadlocked against concurrent commits")
		}
	}
}
