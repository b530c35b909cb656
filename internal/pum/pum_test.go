package pum

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sapphire/internal/bootstrap"
	"sapphire/internal/datagen"
	"sapphire/internal/endpoint"
	"sapphire/internal/federation"
	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
	"sapphire/internal/store"
)

// newPUM builds a PUM over the small synthetic dataset, initializing the
// cache once per test binary.
var sharedPUM *PUM

func testPUM(t testing.TB) *PUM {
	t.Helper()
	if sharedPUM != nil {
		return sharedPUM
	}
	d := datagen.Generate(datagen.SmallConfig())
	ep := endpoint.NewLocal("synthetic-dbpedia", d.Store, endpoint.Limits{})
	cache, err := bootstrap.Initialize(context.Background(), ep, bootstrap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fed := federation.New(ep)
	sharedPUM = New(cache, fed, nil, DefaultConfig())
	return sharedPUM
}

func TestCompleteBasic(t *testing.T) {
	p := testPUM(t)
	got := p.Complete("Kerouac")
	if len(got) == 0 {
		t.Fatal("no completions for Kerouac")
	}
	found := false
	for _, c := range got {
		if c.Text == "Jack Kerouac" {
			found = true
		}
	}
	if !found {
		t.Errorf("completions = %v, want Jack Kerouac", got)
	}
}

func TestCompletePredicates(t *testing.T) {
	p := testPUM(t)
	got := p.Complete("alma")
	foundPred := false
	for _, c := range got {
		if c.Text == "alma mater" && c.IsPredicate {
			foundPred = true
		}
	}
	if !foundPred {
		t.Errorf("completions = %v, want predicate 'alma mater'", got)
	}
}

func TestCompleteRespectsK(t *testing.T) {
	p := testPUM(t)
	// Single letters match many literals; result must cap at K.
	got := p.Complete("a")
	if len(got) > p.cfg.K {
		t.Errorf("completions = %d, K = %d", len(got), p.cfg.K)
	}
}

func TestCompleteVariableNoSuggestions(t *testing.T) {
	p := testPUM(t)
	if got := p.Complete("?uri"); got != nil {
		t.Errorf("variable completion = %v, want none", got)
	}
	if got := p.Complete(""); got != nil {
		t.Errorf("empty completion = %v", got)
	}
}

func TestCompleteTreeFirst(t *testing.T) {
	p := testPUM(t)
	got := p.Complete("Australia")
	if len(got) == 0 {
		t.Fatal("no completions")
	}
	// Significant literals (country names) come from the tree.
	if !got[0].FromTree {
		t.Errorf("first completion %+v should come from the suffix tree", got[0])
	}
}

func TestCompleteGammaWindow(t *testing.T) {
	p := testPUM(t)
	// A term of length n only yields residual matches of length <= n+γ.
	for _, c := range p.Complete("Kennedy") {
		if !c.FromTree && len([]rune(c.Text)) > len("Kennedy")+p.cfg.Gamma {
			t.Errorf("completion %q exceeds the γ window", c.Text)
		}
	}
}

func TestSuggestKennedyScenario(t *testing.T) {
	p := testPUM(t)
	// The Section 4 example: "Kennedys" has no answers; QSM suggests
	// "Kennedy"-family literals that do.
	q := sparql.MustParse(`SELECT ?person WHERE {
		?person <` + rdf.NSDBO + `name> "Ted Kennedys"@en .
	}`)
	// Confirm zero answers first.
	res, err := p.fed.Eval(context.Background(), q)
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("setup: query should return 0 answers, got %v/%v", res, err)
	}
	sugs, err := p.Suggest(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var litSug *Suggestion
	for i := range sugs {
		if sugs[i].Kind == AltLiteral && sugs[i].New == "Ted Kennedy" {
			litSug = &sugs[i]
		}
	}
	if litSug == nil {
		t.Fatalf("no 'Ted Kennedy' literal suggestion in %d suggestions", len(sugs))
	}
	if litSug.Answers == 0 || litSug.Prefetched == nil {
		t.Error("suggestion lacks prefetched answers")
	}
	if !strings.Contains(litSug.Message(), "instead of") {
		t.Errorf("message = %q", litSug.Message())
	}
	// Accepting the suggestion must find the person.
	if litSug.Prefetched.Rows[0]["person"].Value != rdf.NSDBR+"Ted_Kennedy" {
		t.Errorf("prefetched = %+v", litSug.Prefetched.Rows)
	}
}

func TestSuggestPredicateAlternative(t *testing.T) {
	p := testPUM(t)
	// "wife" verbalizes "spouse" through the lexicon; the dataset only
	// has dbo:spouse. A query using a wrong predicate IRI whose display
	// is "wife" should be corrected.
	q := &sparql.Query{
		Prefixes:    map[string]string{},
		Projections: []sparql.Projection{{Var: "w"}},
		Where: []sparql.Pattern{{
			S: sparql.NewTermNode(datagen.Res("Tom_Hanks")),
			P: sparql.NewTermNode(rdf.NewIRI(rdf.NSDBO + "wife")),
			O: sparql.NewVar("w"),
		}},
		Limit: -1,
	}
	sugs, err := p.Suggest(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var found *Suggestion
	for i := range sugs {
		if sugs[i].Kind == AltPredicate && sugs[i].New == "spouse" {
			found = &sugs[i]
		}
	}
	if found == nil {
		t.Fatalf("no spouse suggestion; got %+v", sugs)
	}
	if found.Answers != 1 {
		t.Errorf("spouse suggestion answers = %d, want 1 (Rita Wilson)", found.Answers)
	}
}

func TestSuggestRelaxationFigure6(t *testing.T) {
	p := testPUM(t)
	// The user's structure is wrong: books don't have writer/publisher
	// pointing at literals directly. Relaxation must connect the
	// literals "Jack Kerouac" and "Viking Press" through the graph.
	q := sparql.MustParse(`SELECT ?book WHERE {
		?book <` + rdf.NSDBO + `writer> "Jack Kerouac"@en .
		?book <` + rdf.NSDBO + `publisher> "Viking Press"@en .
	}`)
	res, err := p.fed.Eval(context.Background(), q)
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("setup: structurally-wrong query should have 0 answers")
	}
	sugs, err := p.Suggest(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var relax *Suggestion
	for i := range sugs {
		if sugs[i].Kind == Relaxation {
			relax = &sugs[i]
		}
	}
	if relax == nil {
		t.Fatal("no relaxation suggestion")
	}
	if relax.Answers == 0 {
		t.Fatal("relaxed query returned no answers")
	}
	// The relaxed query must mention both literals and use variables for
	// the intermediate entities.
	qs := relax.Query.String()
	if !strings.Contains(qs, "Jack Kerouac") || !strings.Contains(qs, "Viking Press") {
		t.Errorf("relaxed query misses literals:\n%s", qs)
	}
	if !strings.Contains(qs, "?v") {
		t.Errorf("relaxed query has no generalized variables:\n%s", qs)
	}
	// Answers should include the two Viking Press books' entities; the
	// relaxed query binds the book variable somewhere in each row.
	foundBook := false
	for _, row := range relax.Prefetched.Rows {
		for _, v := range row {
			if v.Value == rdf.NSDBR+"On_the_Road" || v.Value == rdf.NSDBR+"Door_Wide_Open" {
				foundBook = true
			}
		}
	}
	if !foundBook {
		t.Errorf("relaxation answers do not contain the Kerouac/Viking books: %v", relax.Prefetched.Sorted())
	}
}

func TestSuggestLimitsPerDirection(t *testing.T) {
	p := testPUM(t)
	q := sparql.MustParse(`SELECT ?person WHERE {
		?person <` + rdf.NSDBO + `name> "John Kennedy"@en .
	}`)
	sugs, err := p.Suggest(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	nPred, nLit := 0, 0
	for _, s := range sugs {
		switch s.Kind {
		case AltPredicate:
			nPred++
		case AltLiteral:
			nLit++
		}
	}
	if nPred > p.cfg.K/2 || nLit > p.cfg.K/2 {
		t.Errorf("suggestions exceed K/2 per direction: preds %d, lits %d", nPred, nLit)
	}
	// All suggestions carry answers (TopQueriesWithAnswer).
	for _, s := range sugs {
		if s.Answers == 0 {
			t.Errorf("suggestion with zero answers kept: %+v", s.Message())
		}
	}
}

func TestSuggestKindString(t *testing.T) {
	if AltPredicate.String() != "alternative-predicate" ||
		AltLiteral.String() != "alternative-literal" ||
		Relaxation.String() != "relaxed-structure" {
		t.Error("SuggestionKind strings wrong")
	}
}

func TestRelaxSkipsQueriesWithoutLiterals(t *testing.T) {
	p := testPUM(t)
	q := sparql.MustParse(`SELECT ?s WHERE { ?s a <` + rdf.NSDBO + `Book> . }`)
	sug, err := p.Relax(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sug != nil {
		t.Error("relaxation offered for a query with one IRI-only pattern")
	}
}

func TestTreeToQueryDeterministic(t *testing.T) {
	tree := []rdf.Triple{
		{S: rdf.NewIRI("http://x/b"), P: rdf.NewIRI("http://x/p"), O: rdf.NewLiteral("L1")},
		{S: rdf.NewIRI("http://x/a"), P: rdf.NewIRI("http://x/q"), O: rdf.NewIRI("http://x/b")},
	}
	orig := sparql.MustParse(`SELECT ?s WHERE { ?s <http://x/p> "L1" . }`)
	q1 := treeToQuery(tree, orig)
	q2 := treeToQuery([]rdf.Triple{tree[1], tree[0]}, orig)
	if q1.String() != q2.String() {
		t.Errorf("treeToQuery not order-independent:\n%s\nvs\n%s", q1, q2)
	}
	if len(q1.Where) != 2 || !q1.SelectAll {
		t.Errorf("generalized query shape wrong: %s", q1)
	}
}

// TestRelaxThroughBlankNode connects two literals whose only path runs
// through a blank node. Blank nodes expand on their object side only,
// and the federation asks its member about one with that position
// unbound, since SPARQL would read the label as a variable.
func TestRelaxThroughBlankNode(t *testing.T) {
	s := store.New()
	b1 := rdf.NewBlank("b1")
	s.MustAdd(rdf.NewTriple(b1, rdf.NewIRI(rdf.NSDBO+"author"), rdf.NewLangLiteral("Alpha", "en")))
	s.MustAdd(rdf.NewTriple(b1, rdf.NewIRI(rdf.NSDBO+"publisher"), rdf.NewLangLiteral("Beta", "en")))
	ep := endpoint.NewLocal("blank", s, endpoint.Limits{})
	ctx := context.Background()
	cache, err := bootstrap.Initialize(ctx, ep, bootstrap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := New(cache, federation.New(ep), nil, DefaultConfig())
	q := sparql.MustParse(`SELECT ?x WHERE {
		?x <` + rdf.NSDBO + `writer> "Alpha"@en .
		?x <` + rdf.NSDBO + `label> "Beta"@en .
	}`)
	sug, err := p.Relax(ctx, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sug == nil || sug.Kind != Relaxation || sug.Answers != 1 {
		t.Fatalf("relaxation = %+v, want one relaxed-structure answer", sug)
	}
	want := "?v0 <" + rdf.NSDBO + "author> \"Alpha\"@en"
	if qs := sug.Query.String(); !strings.Contains(qs, want) {
		t.Errorf("relaxed query misses %s:\n%s", want, qs)
	}
}

// TestSuggestRelaxationUnderGenerationSwaps runs Suggest from four
// goroutines over one federation while its member gains unrelated
// triples (each write moves the epoch, so the federation swaps its
// generation under running relaxations) and ResetCaches fires. Every
// relaxation must equal the one a quiet run returns.
func TestSuggestRelaxationUnderGenerationSwaps(t *testing.T) {
	d := datagen.Generate(datagen.SmallConfig())
	ep := endpoint.NewLocal("synthetic-dbpedia", d.Store, endpoint.Limits{})
	ctx := context.Background()
	cache, err := bootstrap.Initialize(ctx, ep, bootstrap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fed := federation.New(ep)
	p := New(cache, fed, nil, DefaultConfig())

	relaxed := func(q *sparql.Query) string {
		sugs, err := p.Suggest(ctx, q)
		if err != nil {
			return "error: " + err.Error()
		}
		for _, s := range sugs {
			if s.Kind == Relaxation {
				return fmt.Sprintf("%d answers\n%s", s.Answers, s.Query)
			}
		}
		return "none"
	}
	queries := []*sparql.Query{
		sparql.MustParse(`SELECT ?book WHERE {
			?book <` + rdf.NSDBO + `writer> "Jack Kerouac"@en .
			?book <` + rdf.NSDBO + `publisher> "Viking Press"@en .
		}`),
		sparql.MustParse(`SELECT ?c WHERE {
			?c <` + rdf.NSDBO + `industry> "Aerospace"@en .
			?c <` + rdf.NSDBO + `industry> "Medicine"@en .
		}`),
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = relaxed(q)
		if !strings.HasSuffix(strings.SplitN(want[i], "\n", 2)[0], "answers") {
			t.Fatalf("quiet run of query %d relaxed to %q", i, want[i])
		}
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			s := rdf.NewIRI(fmt.Sprintf("http://x/churn%d", n))
			if _, err := ep.Store().Add(rdf.NewTriple(s, rdf.NewIRI("http://x/p"), rdf.NewLiteral("churn"))); err != nil {
				t.Error(err)
				return
			}
			if n%3 == 0 {
				fed.ResetCaches()
			}
			time.Sleep(time.Millisecond)
		}
	}()
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for it := 0; it < 3; it++ {
				i := (w + it) % len(queries)
				if got := relaxed(queries[i]); got != want[i] {
					t.Errorf("worker %d: query %d relaxed to\n%s\nquiet run gave\n%s", w, i, got, want[i])
				}
			}
		}(w)
	}
	readers.Wait()
	close(stop)
	churn.Wait()
}
