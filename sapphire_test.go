package sapphire

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"sapphire/internal/datagen"
	"sapphire/internal/endpoint"
)

func newClient(t testing.TB) *Client {
	t.Helper()
	d := datagen.Generate(datagen.SmallConfig())
	ep := endpoint.NewLocal("synthetic-dbpedia", d.Store, endpoint.Limits{})
	c := New(Defaults())
	if err := c.RegisterEndpoint(context.Background(), ep); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClientLifecycle(t *testing.T) {
	c := New(Defaults())
	if got := c.Complete("x"); got != nil {
		t.Error("Complete before registration should return nil")
	}
	if _, err := c.Query(context.Background(), "SELECT ?s WHERE { ?s ?p ?o }"); err == nil {
		t.Error("Query before registration should fail")
	}
	if _, err := c.Suggest(context.Background(), "SELECT ?s WHERE { ?s ?p ?o }"); err == nil {
		t.Error("Suggest before registration should fail")
	}
}

func TestClientEndToEnd(t *testing.T) {
	c := newClient(t)
	if got := c.Endpoints(); len(got) != 1 || got[0] != "synthetic-dbpedia" {
		t.Errorf("Endpoints = %v", got)
	}
	if st := c.Stats(); st.PredicateCount == 0 || st.LiteralCount == 0 {
		t.Errorf("Stats = %+v", st)
	}
	comps := c.Complete("Kerouac")
	if len(comps) == 0 {
		t.Fatal("no completions")
	}
	res, err := c.Query(context.Background(),
		`SELECT ?b WHERE { ?b <http://dbpedia.org/ontology/author> ?a .
			?a <http://dbpedia.org/ontology/name> "Jack Kerouac"@en . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("Kerouac books = %d, want 3", len(res.Rows))
	}
}

func TestClientRunWithSuggestions(t *testing.T) {
	c := newClient(t)
	// Misspelled literal: zero answers, suggestions must repair it.
	res, sugs, err := c.Run(context.Background(),
		`SELECT ?p WHERE { ?p <http://dbpedia.org/ontology/name> "Ted Kennedys"@en . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("misspelled query returned %d rows", len(res.Rows))
	}
	if len(sugs) == 0 {
		t.Fatal("no suggestions for a zero-answer query")
	}
	found := false
	for _, s := range sugs {
		if s.Kind == AltLiteral && s.New == "Ted Kennedy" && s.Answers > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no Ted Kennedy literal fix among %d suggestions", len(sugs))
	}
}

func TestClientBadQuery(t *testing.T) {
	c := newClient(t)
	if _, err := c.Query(context.Background(), "not sparql"); err == nil {
		t.Error("bad query accepted")
	}
	if _, _, err := c.Run(context.Background(), "not sparql"); err == nil {
		t.Error("bad Run query accepted")
	}
}

func TestClientMultipleEndpointsMergedCache(t *testing.T) {
	d := datagen.Generate(datagen.SmallConfig())
	ep1 := endpoint.NewLocal("main", d.Store, endpoint.Limits{})
	// Second endpoint with a disjoint mini-dataset.
	nt := strings.NewReader(`# a comment line
<http://other.org/e1> <http://other.org/hasCuriosity> "A distinct curio"@en .
<http://other.org/e1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://other.org/Curio> .
<http://other.org/e1> <http://other.org/hasCuriosity> "A distinct curio"@en .
`)
	ep2, err := NewEndpointFromNTriples("other", nt, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ep2.Store().Len(); got != 2 {
		t.Fatalf("Len = %d, want 2 (duplicate line deduplicated)", got)
	}
	if _, err := NewEndpointFromNTriples("bad", strings.NewReader("<oops\n"), Limits{}); err == nil {
		t.Fatal("malformed document accepted")
	}
	c := New(Defaults())
	ctx := context.Background()
	if err := c.RegisterEndpoint(ctx, ep1); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterEndpoint(ctx, ep2); err != nil {
		t.Fatal(err)
	}
	if len(c.Endpoints()) != 2 {
		t.Fatalf("endpoints = %v", c.Endpoints())
	}
	// Completions must span both endpoints' caches.
	if got := c.Complete("Kerouac"); len(got) == 0 {
		t.Error("first endpoint's literals lost after merge")
	}
	if got := c.Complete("distinct"); len(got) == 0 {
		t.Error("second endpoint's literals not merged")
	}
	// Federated query across both.
	res, err := c.Query(ctx, `SELECT ?o WHERE { <http://other.org/e1> <http://other.org/hasCuriosity> ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("federated rows = %d", len(res.Rows))
	}
}

func TestClientOverHTTP(t *testing.T) {
	d := datagen.Generate(datagen.SmallConfig())
	srv := httptest.NewServer(endpoint.NewMux(endpoint.NewLocal("remote", d.Store, endpoint.Limits{})))
	defer srv.Close()
	c := New(Defaults())
	if err := c.RegisterHTTP(context.Background(), srv.URL+"/sparql"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(context.Background(),
		`SELECT ?w WHERE { <http://dbpedia.org/resource/Tom_Hanks> <http://dbpedia.org/ontology/spouse> ?w . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestNewMemoryEndpoint(t *testing.T) {
	d := datagen.Generate(datagen.SmallConfig())
	for _, triples := range [][]Triple{nil, d.Store.MatchSlice(Term{}, Term{}, Term{})} {
		ep, err := NewMemoryEndpoint("t", triples)
		if err != nil {
			t.Fatalf("%d triples: %v", len(triples), err)
		}
		if got := ep.Store().Len(); got != len(triples) {
			t.Errorf("Len = %d, want %d", got, len(triples))
		}
	}
	bad := []Triple{{}}
	if _, err := NewMemoryEndpoint("t", bad); err == nil {
		t.Error("invalid triple accepted")
	}
}

func TestCachePersistenceRoundTrip(t *testing.T) {
	d := datagen.Generate(datagen.SmallConfig())
	ep := endpoint.NewLocal("persisted", d.Store, endpoint.Limits{})
	c1 := New(Defaults())
	ctx := context.Background()
	if err := c1.RegisterEndpoint(ctx, ep); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := c1.SaveEndpointCache("persisted", &buf); err != nil {
		t.Fatal(err)
	}
	if err := c1.SaveEndpointCache("nonexistent", &strings.Builder{}); err == nil {
		t.Error("saving unknown endpoint succeeded")
	}

	// A fresh client loads the cache without crawling.
	ep2 := endpoint.NewLocal("persisted", d.Store, endpoint.Limits{})
	c2 := New(Defaults())
	if err := c2.RegisterEndpointWithCache(ep2, strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	if got := ep2.Stats().Queries; got != 0 {
		t.Errorf("cached registration issued %d queries, want 0", got)
	}
	// Identical completion behaviour.
	a := c1.Complete("Kerouac")
	b := c2.Complete("Kerouac")
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("completions differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Text != b[i].Text {
			t.Errorf("completion %d: %q vs %q", i, a[i].Text, b[i].Text)
		}
	}
	// Queries still work (the endpoint itself is live).
	res, err := c2.Query(ctx, `SELECT ?w WHERE { <http://dbpedia.org/resource/Tom_Hanks> <http://dbpedia.org/ontology/spouse> ?w . }`)
	if err != nil || len(res.Rows) != 1 {
		t.Errorf("query after cached registration: %v, %d rows", err, len(res.Rows))
	}
}
