package store

import (
	"fmt"
	"testing"

	"sapphire/internal/rdf"
)

func benchStore(n int) *Store {
	s := New()
	p := rdf.NewIRI("http://x/p")
	typ := rdf.NewIRI(rdf.RDFType)
	cls := rdf.NewIRI("http://x/C")
	for i := 0; i < n; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/s%d", i))
		s.MustAdd(rdf.NewTriple(subj, typ, cls))
		s.MustAdd(rdf.NewTriple(subj, p, rdf.NewLiteral(fmt.Sprintf("value %d", i))))
	}
	return s
}

// BenchmarkMatchByPredicate measures the POS index sweep, the (?s P ?o)
// shape.
func BenchmarkMatchByPredicate(b *testing.B) {
	s := benchStore(5000)
	p := rdf.NewIRI("http://x/p")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.Match(rdf.Term{}, p, rdf.Term{}, func(rdf.Triple) bool { n++; return true })
		if n != 5000 {
			b.Fatalf("matched %d", n)
		}
	}
}

// BenchmarkMatchBySubject measures the SPO point lookup.
func BenchmarkMatchBySubject(b *testing.B) {
	s := benchStore(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/s%d", i%5000))
		s.MatchSlice(subj, rdf.Term{}, rdf.Term{})
	}
}

// BenchmarkMatchWildcardPredicate measures the shape that used to re-sort
// map keys on every call: predicate wildcard with a bound object, i.e.
// (?s ?p <o>), walking the OSP index across all subjects pointing at one
// hub object. With incrementally sorted key slices this is a flat sweep.
func BenchmarkMatchWildcardPredicate(b *testing.B) {
	s := New()
	hub := rdf.NewIRI("http://x/hub")
	p := rdf.NewIRI("http://x/p")
	for i := 0; i < 5000; i++ {
		s.MustAdd(rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://x/s%d", i)), p, hub))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.Match(rdf.Term{}, rdf.Term{}, hub, func(rdf.Triple) bool { n++; return true })
		if n != 5000 {
			b.Fatalf("matched %d", n)
		}
	}
}

// BenchmarkMatchIDsWildcardPredicate is the same sweep staying in ID
// space, skipping triple materialization entirely.
func BenchmarkMatchIDsWildcardPredicate(b *testing.B) {
	s := New()
	hub := rdf.NewIRI("http://x/hub")
	p := rdf.NewIRI("http://x/p")
	for i := 0; i < 5000; i++ {
		s.MustAdd(rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://x/s%d", i)), p, hub))
	}
	hubID, ok := s.Lookup(hub)
	if !ok {
		b.Fatal("hub not interned")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.MatchIDs(Wildcard, Wildcard, hubID, func(ID, ID, ID) bool { n++; return true })
		if n != 5000 {
			b.Fatalf("matched %d", n)
		}
	}
}

// benchTriples builds n distinct triples across n/2 subjects, the shape
// that stresses level-one key-slice maintenance hardest.
func benchTriples(n int) []rdf.Triple {
	p := rdf.NewIRI("http://x/p")
	typ := rdf.NewIRI(rdf.RDFType)
	cls := rdf.NewIRI("http://x/C")
	out := make([]rdf.Triple, 0, n)
	for i := 0; i < n/2; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/s%d", i))
		out = append(out, rdf.NewTriple(subj, typ, cls))
		out = append(out, rdf.NewTriple(subj, p, rdf.NewLiteral(fmt.Sprintf("value %d", i))))
	}
	return out
}

// BenchmarkBulkLoad measures the staged path at 100k triples: intern +
// buffer, then one Commit that sorts each key slice once.
func BenchmarkBulkLoad(b *testing.B) {
	triples := benchTriples(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		l := NewBulkLoader(s)
		if err := l.AddAll(triples); err != nil {
			b.Fatal(err)
		}
		if l.Commit() != len(triples) {
			b.Fatal("short commit")
		}
	}
}

// BenchmarkAddAll measures Store.AddAll at 100k triples (routed through
// the bulk path).
func BenchmarkAddAll(b *testing.B) {
	triples := benchTriples(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		if err := s.AddAll(triples); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialAdd is the incremental path at the same scale: one
// Add per triple, each new key insertion-sorted with an O(n) memmove.
// The BulkLoad/SequentialAdd ratio is the ROADMAP bulk-ingestion row.
func BenchmarkSequentialAdd(b *testing.B) {
	triples := benchTriples(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for _, tr := range triples {
			if _, err := s.Add(tr); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAdd measures insert throughput with index maintenance.
func BenchmarkAdd(b *testing.B) {
	s := New()
	p := rdf.NewIRI("http://x/p")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/s%d", i))
		if _, err := s.Add(rdf.NewTriple(subj, p, rdf.NewLiteral(fmt.Sprint(i)))); err != nil {
			b.Fatal(err)
		}
	}
}
