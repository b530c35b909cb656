package store

import (
	"testing"

	"sapphire/internal/rdf"
)

func buildStatsSample(t testing.TB) *Store {
	t.Helper()
	s := New()
	typ := rdf.NewIRI(rdf.RDFType)
	person := iri("Person")
	city := iri("City")
	data := []rdf.Triple{
		// Three people, two cities. name is the most common literal predicate.
		tri(iri("alice"), typ, person),
		tri(iri("bob"), typ, person),
		tri(iri("carol"), typ, person),
		tri(iri("nyc"), typ, city),
		tri(iri("berlin"), typ, city),
		tri(iri("alice"), iri("name"), lit("Alice")),
		tri(iri("bob"), iri("name"), lit("Bob")),
		tri(iri("carol"), iri("name"), lit("Carol")),
		tri(iri("nyc"), iri("name"), lit("New York")),
		tri(iri("alice"), iri("bornIn"), iri("nyc")),
		tri(iri("bob"), iri("bornIn"), iri("nyc")),
		tri(iri("carol"), iri("bornIn"), iri("berlin")),
		tri(iri("nyc"), iri("population"), rdf.NewTypedLiteral("8000000", rdf.XSDInteger)),
	}
	if err := s.AddAll(data); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPredicateFrequencies(t *testing.T) {
	s := buildStatsSample(t)
	freqs := s.PredicateFrequencies()
	if len(freqs) != 4 {
		t.Fatalf("got %d predicates, want 4", len(freqs))
	}
	// rdf:type has 5 uses — must be first.
	if freqs[0].Predicate.Value != rdf.RDFType || freqs[0].Count != 5 {
		t.Errorf("top predicate = %v (%d), want rdf:type (5)", freqs[0].Predicate, freqs[0].Count)
	}
	// Must be sorted non-increasing.
	for i := 1; i < len(freqs); i++ {
		if freqs[i].Count > freqs[i-1].Count {
			t.Errorf("frequencies not sorted at %d", i)
		}
	}
}
