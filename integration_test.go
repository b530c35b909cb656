package sapphire

// Integration tests exercising the full stack the way a deployment wires
// it: HTTP SPARQL endpoints (with simulated limits and injected
// failures), the Sapphire client over them, and concurrent interactive
// sessions.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"sapphire/internal/datagen"
	"sapphire/internal/endpoint"
	"sapphire/internal/qald"
)

// TestFullStackOverHTTP drives the complete loop — initialization,
// completion, execution, suggestion, acceptance — across a real HTTP
// boundary with endpoint limits enabled.
func TestFullStackOverHTTP(t *testing.T) {
	d := datagen.Generate(datagen.SmallConfig())
	local := endpoint.NewLocal("synthetic-dbpedia", d.Store, endpoint.Limits{
		MaxIntermediateRows: 100000, // generous but present
	})
	srv := httptest.NewServer(endpoint.NewMux(local))
	defer srv.Close()

	client := New(Defaults())
	if err := client.RegisterHTTP(context.Background(), srv.URL+"/sparql"); err != nil {
		t.Fatal(err)
	}
	if st := client.Stats(); st.LiteralCount == 0 {
		t.Fatalf("nothing cached over HTTP: %+v", st)
	}

	// Type, complete, run, accept a suggestion.
	comps := client.Complete("Kennedy")
	if len(comps) == 0 {
		t.Fatal("no completions over HTTP")
	}
	res, sugs, err := client.Run(context.Background(), `SELECT ?p WHERE {
		?p <http://dbpedia.org/ontology/name> "Ted Kennedys"@en . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 || len(sugs) == 0 {
		t.Fatalf("rows = %d, suggestions = %d", len(res.Rows), len(sugs))
	}
	accepted := sugs[0]
	if accepted.Prefetched == nil || len(accepted.Prefetched.Rows) == 0 {
		t.Fatal("accepted suggestion lacks prefetched answers")
	}
}

// TestConcurrentSessions runs many interactive sessions against one
// client simultaneously — the Sapphire server serves multiple users.
func TestConcurrentSessions(t *testing.T) {
	c := newClient(t)
	terms := []string{"Kerouac", "Kennedy", "alma", "Austral", "press", "Sydney", "name", "Viking"}
	queries := []string{
		`SELECT ?b WHERE { ?b <http://dbpedia.org/ontology/author> ?a . ?a <http://dbpedia.org/ontology/name> "Jack Kerouac"@en . }`,
		`SELECT ?w WHERE { <http://dbpedia.org/resource/Tom_Hanks> <http://dbpedia.org/ontology/spouse> ?w . }`,
		`SELECT (COUNT(?s) AS ?n) WHERE { ?s a <http://dbpedia.org/ontology/City> . }`,
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if got := c.Complete(terms[(i+j)%len(terms)]); len(got) == 0 && terms[(i+j)%len(terms)] == "Kerouac" {
					errs <- fmt.Errorf("no completions for Kerouac")
					return
				}
				if _, err := c.Query(context.Background(), queries[(i+j)%len(queries)]); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFederationWithFlakyMember registers a healthy and a failing
// endpoint: registration of the flaky one may cache less, but queries
// against the healthy one keep working.
func TestFederationWithFlakyMember(t *testing.T) {
	d := datagen.Generate(datagen.SmallConfig())
	healthy := endpoint.NewLocal("healthy", d.Store, endpoint.Limits{})

	tiny := strings.NewReader(`<http://other.org/e1> <http://other.org/p> "flaky data"@en .
<http://other.org/e1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://other.org/T> .
`)
	otherInner, err := NewEndpointFromNTriples("other", tiny, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	flaky := endpoint.NewFlaky(otherInner, 2, 0, 3) // every 2nd query fails

	c := New(Defaults())
	ctx := context.Background()
	if err := c.RegisterEndpoint(ctx, healthy); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterEndpoint(ctx, flaky); err != nil {
		t.Fatalf("flaky registration should degrade, not fail: %v", err)
	}
	// Queries on the healthy member still answer.
	res, err := c.Query(ctx, `SELECT ?w WHERE { <http://dbpedia.org/resource/Tom_Hanks> <http://dbpedia.org/ontology/spouse> ?w . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

// TestTurtleEndpointEndToEnd loads a Turtle dataset through the facade's
// one streaming constructor and runs the interactive loop on it.
func TestTurtleEndpointEndToEnd(t *testing.T) {
	ttl := `
@prefix x: <http://x/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
x:kerouac x:name "Jack Kerouac"@en ; a x:Writer .
x:ontheroad x:author x:kerouac ; x:name "On the Road"@en ; a x:Book .
x:doorwide x:author x:kerouac ; x:name "Door Wide Open"@en ; a x:Book .
`
	ep, err := NewEndpointFromNTriples("ttl", strings.NewReader(ttl), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Defaults())
	if err := c.RegisterEndpoint(context.Background(), ep); err != nil {
		t.Fatal(err)
	}
	if got := c.Complete("Kerouac"); len(got) == 0 {
		t.Error("no completions from Turtle data")
	}
	res, err := c.Query(context.Background(),
		`SELECT ?b WHERE { ?b <http://x/author> ?a . ?a <http://x/name> "Jack Kerouac"@en . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d, want 2", len(res.Rows))
	}
}

// TestOptionalQueryThroughFederation exercises OPTIONAL and UNION across
// the federated path (endpoints see only single-pattern queries; the
// federator assembles the algebra).
func TestOptionalQueryThroughFederation(t *testing.T) {
	c := newClient(t)
	res, err := c.Query(context.Background(), `SELECT ?b ?p WHERE {
		?b <http://dbpedia.org/ontology/author> <http://dbpedia.org/resource/Jack_Kerouac> .
		OPTIONAL { ?b <http://dbpedia.org/ontology/publisher> ?p . }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (all Kerouac books)", len(res.Rows))
	}
	res, err = c.Query(context.Background(), `SELECT ?n WHERE {
		{ ?x <http://dbpedia.org/ontology/name> ?n . ?x a <http://dbpedia.org/ontology/ChessPlayer> . }
		UNION
		{ ?x <http://dbpedia.org/ontology/name> ?n . ?x a <http://dbpedia.org/ontology/Royalty> . }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 5 {
		t.Errorf("union rows = %d", len(res.Rows))
	}
}

// TestEndToEndStudyQuestionOverHTTP picks one benchmark question and
// walks it through the HTTP endpoint path.
func TestEndToEndStudyQuestionOverHTTP(t *testing.T) {
	d := datagen.Generate(datagen.SmallConfig())
	srv := httptest.NewServer(endpoint.NewMux(endpoint.NewLocal("remote", d.Store, endpoint.Limits{})))
	defer srv.Close()
	c := New(Defaults())
	if err := c.RegisterHTTP(context.Background(), srv.URL+"/sparql"); err != nil {
		t.Fatal(err)
	}
	var m8 qald.Question
	for _, q := range qald.Questions() {
		if q.ID == "M8" {
			m8 = q
		}
	}
	gold, err := qald.GoldAnswers(d.Store, m8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(context.Background(), m8.Gold)
	if err != nil {
		t.Fatal(err)
	}
	got := qald.FromResults(res)
	if !got.Equal(gold) {
		t.Errorf("M8 over HTTP = %v, want %v", got.Values(), gold.Values())
	}
}
