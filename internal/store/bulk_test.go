package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sapphire/internal/rdf"
)

// bulkTestTriples generates n pseudo-random triples over a vocabulary
// small enough to produce duplicates and shared keys at every index
// level, plus a deliberate run of exact duplicate triples.
func bulkTestTriples(n int, seed int64) []rdf.Triple {
	rng := rand.New(rand.NewSource(seed))
	preds := []rdf.Term{iri("knows"), iri("name"), iri("age"), iri("type")}
	out := make([]rdf.Triple, 0, n)
	for i := 0; i < n; i++ {
		s := iri(fmt.Sprintf("s%d", rng.Intn(n/3+1)))
		p := preds[rng.Intn(len(preds))]
		var o rdf.Term
		if rng.Intn(2) == 0 {
			o = iri(fmt.Sprintf("o%d", rng.Intn(n/3+1)))
		} else {
			o = lit(fmt.Sprintf("v%d", rng.Intn(n/4+1)))
		}
		out = append(out, tri(s, p, o))
		if rng.Intn(10) == 0 { // exact duplicate, back to back
			out = append(out, tri(s, p, o))
		}
	}
	return out
}

// dumpAll returns the full-scan iteration in index order; comparing two
// stores' dumps checks both content and the sorted-key iteration order.
func dumpAll(s *Store) []rdf.Triple {
	var out []rdf.Triple
	s.Match(rdf.Term{}, rdf.Term{}, rdf.Term{}, func(tr rdf.Triple) bool {
		out = append(out, tr)
		return true
	})
	return out
}

// TestBulkEquivalence loads the same triple sequence (duplicates
// included) through sequential Add and through a BulkLoader split over
// several commits with online Adds interleaved, and requires the two
// stores to be observationally identical: same full-scan order, same
// counts for every pattern shape, same sorted key views.
func TestBulkEquivalence(t *testing.T) {
	triples := bulkTestTriples(2000, 7)
	third := len(triples) / 3
	// online is inserted between the first and second commit via the
	// incremental path; seq replays the same logical sequence so the two
	// stores must match exactly, iteration order included.
	online := []rdf.Triple{triples[0], tri(iri("online"), iri("knows"), iri("o1"))}

	seq := New()
	for _, batch := range [][]rdf.Triple{triples[:third], online, triples[third:]} {
		for _, tr := range batch {
			if _, err := seq.Add(tr); err != nil {
				t.Fatal(err)
			}
		}
	}

	bulk := New()
	l := NewBulkLoader(bulk)
	if err := l.AddAll(triples[:third]); err != nil {
		t.Fatal(err)
	}
	if got := len(l.buf); got != third {
		t.Fatalf("staged = %d, want %d", got, third)
	}
	l.Commit()
	if got := len(l.buf); got != 0 {
		t.Fatalf("staged after Commit = %d, want 0", got)
	}
	// Interleave the online path: a duplicate of something already
	// committed plus a fresh triple, through Store.Add directly.
	for _, tr := range online {
		bulk.MustAdd(tr)
	}
	for _, tr := range triples[third : 2*third] {
		if err := l.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	l.Commit()
	if err := l.AddAll(triples[2*third:]); err != nil {
		t.Fatal(err)
	}
	l.Commit()

	if seq.Len() != bulk.Len() {
		t.Fatalf("Len: seq %d, bulk %d", seq.Len(), bulk.Len())
	}
	if got, want := dumpAll(bulk), dumpAll(seq); !reflect.DeepEqual(got, want) {
		t.Fatal("full-scan iteration differs between sequential Add and bulk load")
	}
	if got, want := subjects(bulk), subjects(seq); !reflect.DeepEqual(got, want) {
		t.Fatal("Subjects differ")
	}
	if got, want := predicates(bulk), predicates(seq); !reflect.DeepEqual(got, want) {
		t.Fatal("Predicates differ")
	}
	// Every pattern shape over a sample of terms must count identically.
	probes := triples[:50]
	var z rdf.Term
	for _, tr := range probes {
		shapes := [][3]rdf.Term{
			{tr.S, tr.P, tr.O}, {tr.S, tr.P, z}, {tr.S, z, tr.O}, {z, tr.P, tr.O},
			{tr.S, z, z}, {z, tr.P, z}, {z, z, tr.O}, {z, z, z},
		}
		for _, sh := range shapes {
			if got, want := bulk.Count(sh[0], sh[1], sh[2]), seq.Count(sh[0], sh[1], sh[2]); got != want {
				t.Fatalf("Count(%v) = %d, want %d", sh, got, want)
			}
			if got, want := len(bulk.MatchSlice(sh[0], sh[1], sh[2])), len(seq.MatchSlice(sh[0], sh[1], sh[2])); got != want {
				t.Fatalf("MatchSlice(%v) = %d rows, want %d", sh, got, want)
			}
		}
	}
}

// TestBulkSmallBatchAfterLarge pins the small-tail commit path: a tiny
// AddAll against an already-large store inserts its few new keys into
// the sorted slices (no wholesale re-sort) and must leave the store
// identical to sequential Add.
func TestBulkSmallBatchAfterLarge(t *testing.T) {
	base := bulkTestTriples(1500, 11)
	small := []rdf.Triple{
		tri(iri("zz-new-subject"), iri("knows"), iri("aa-new-object")),
		tri(iri("aa-new-subject"), iri("newpred"), lit("fresh")),
		base[3], // duplicate of an existing triple
	}

	seq := New()
	for _, tr := range append(append([]rdf.Triple{}, base...), small...) {
		if _, err := seq.Add(tr); err != nil {
			t.Fatal(err)
		}
	}

	bulk := New()
	if err := bulk.AddAll(base); err != nil {
		t.Fatal(err)
	}
	if err := bulk.AddAll(small); err != nil {
		t.Fatal(err)
	}

	if seq.Len() != bulk.Len() {
		t.Fatalf("Len: seq %d, bulk %d", seq.Len(), bulk.Len())
	}
	if got, want := dumpAll(bulk), dumpAll(seq); !reflect.DeepEqual(got, want) {
		t.Fatal("full-scan iteration differs after small batch")
	}
	if got, want := subjects(bulk), subjects(seq); !reflect.DeepEqual(got, want) {
		t.Fatal("Subjects differ after small batch")
	}
}

// TestBulkLoaderInvalid checks staging rejects invalid triples without
// corrupting the batch: AddAll stages the prefix before the bad triple,
// matching Store.AddAll's stop-at-first-invalid contract.
func TestBulkLoaderInvalid(t *testing.T) {
	s := New()
	l := NewBulkLoader(s)
	if err := l.Add(rdf.Triple{S: lit("bad"), P: iri("p"), O: iri("o")}); err == nil {
		t.Fatal("literal subject accepted")
	}
	batch := []rdf.Triple{
		tri(iri("a"), iri("p"), iri("b")),
		{S: iri("a"), P: iri("p")}, // zero object
		tri(iri("a"), iri("p"), iri("c")),
	}
	if err := l.AddAll(batch); err == nil {
		t.Fatal("invalid triple accepted by AddAll")
	}
	if got := l.Commit(); got != 1 {
		t.Fatalf("Commit = %d, want 1 (prefix before invalid)", got)
	}
	if !s.Contains(batch[0]) || s.Contains(batch[2]) {
		t.Fatal("AddAll did not stop at the first invalid triple")
	}
}

// TestStoreAddAllStopsAtInvalid pins the routed Store.AddAll contract.
func TestStoreAddAllStopsAtInvalid(t *testing.T) {
	s := New()
	batch := []rdf.Triple{
		tri(iri("a"), iri("p"), iri("b")),
		{S: lit("bad"), P: iri("p"), O: iri("o")},
		tri(iri("a"), iri("p"), iri("c")),
	}
	if err := s.AddAll(batch); err == nil {
		t.Fatal("invalid triple accepted")
	}
	if s.Len() != 1 || !s.Contains(batch[0]) {
		t.Fatalf("Len = %d after invalid batch, want the valid prefix only", s.Len())
	}
}

// TestBulkConcurrentReaders runs wildcard matches, counts, and sorted
// key walks while a loader stages and commits batches. Run with -race.
// Readers must only ever observe fully committed batches: sorted
// iteration, and a triple count that is a multiple of the batch size.
func TestBulkConcurrentReaders(t *testing.T) {
	const (
		batches   = 20
		batchSize = 100
	)
	s := New()
	l := NewBulkLoader(s)
	knows := iri("knows")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				prev := rdf.Term{}
				n := 0
				s.Match(rdf.Term{}, knows, rdf.Term{}, func(tr rdf.Triple) bool {
					if !prev.IsZero() && prev.Compare(tr.O) > 0 {
						t.Errorf("iteration out of order: %v after %v", tr.O, prev)
						return false
					}
					prev = tr.O
					n++
					return true
				})
				if c := s.Count(rdf.Term{}, knows, rdf.Term{}); c%batchSize != 0 {
					t.Errorf("observed partial batch: count %d", c)
					return
				}
				subs := subjects(s)
				for j := 1; j < len(subs); j++ {
					if subs[j-1].Compare(subs[j]) >= 0 {
						t.Errorf("Subjects not sorted at %d", j)
						return
					}
				}
			}
		}()
	}
	for b := 0; b < batches; b++ {
		for i := 0; i < batchSize; i++ {
			l.MustAdd(tri(iri(fmt.Sprintf("s%d-%d", b, i)), knows, iri(fmt.Sprintf("o%04d", b*batchSize+i))))
		}
		if got := l.Commit(); got != batchSize {
			t.Fatalf("Commit = %d, want %d", got, batchSize)
		}
	}
	close(stop)
	wg.Wait()
	if s.Len() != batches*batchSize {
		t.Fatalf("Len = %d, want %d", s.Len(), batches*batchSize)
	}
}
