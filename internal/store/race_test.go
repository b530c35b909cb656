package store

import (
	"fmt"
	"sync"
	"testing"

	"sapphire/internal/rdf"
)

// TestConcurrentAddMatchSubjects hammers Add, Match, MatchIDs, Count, and
// Subjects from parallel goroutines. Run with -race; it guards the
// incremental sorted-key invariant (readers walking a key slice while a
// writer insertion-sorts into a reallocated one must never observe a torn
// state) and the dictionary's append-under-lock discipline.
func TestConcurrentAddMatchSubjects(t *testing.T) {
	s := buildSample(t)
	const (
		writers   = 4
		readers   = 4
		perWriter = 300
	)
	knows := iri("knows")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.MustAdd(tri(
					iri(fmt.Sprintf("w%d-%d", w, i)),
					knows,
					iri(fmt.Sprintf("w%d-%d", (w+1)%writers, i)),
				))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// Term-level wildcard match walks the sorted key slices.
				prev := rdf.Term{}
				s.Match(rdf.Term{}, knows, rdf.Term{}, func(tr rdf.Triple) bool {
					if !prev.IsZero() && prev.Compare(tr.O) > 0 {
						t.Errorf("POS iteration out of order: %v after %v", tr.O, prev)
						return false
					}
					prev = tr.O
					return true
				})
				// ID-level match and counts.
				if id, ok := s.Lookup(knows); ok {
					n := 0
					s.MatchIDs(Wildcard, id, Wildcard, func(a, b, c ID) bool {
						n++
						return true
					})
					// Writers may land between the two calls; the store
					// only grows, so the later count can never be lower.
					if c := s.CountIDs(Wildcard, id, Wildcard); c < n {
						t.Errorf("CountIDs = %d below MatchIDs visit count %d", c, n)
					}
				}
				// Sorted snapshot of level-one keys.
				subs := subjects(s)
				for j := 1; j < len(subs); j++ {
					if subs[j-1].Compare(subs[j]) >= 0 {
						t.Errorf("Subjects not sorted at %d", j)
						break
					}
				}
				s.Count(rdf.Term{}, rdf.Term{}, rdf.Term{})
				s.CardinalityEstimate(rdf.Term{}, knows, rdf.Term{})
			}
		}(r)
	}
	wg.Wait()
	want := 7 + writers*perWriter
	if got := s.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}

// TestDictPublicationRace pins the dictionary's publication contract
// under -race: a term's spine slot is fully written before its ID can
// be learned through any synchronizing edge, so no reader ever observes
// a torn or stale term at a just-allocated ID. Writers intern brand-new
// terms through both the online path (Add) and the batched bulk path
// (AddAll → internAll); readers resolve IDs the three ways they can
// legitimately learn them — inside MatchIDs callbacks (store lock
// edge), via Lookup round-trips on terms handed over a channel
// (dictionary lock + channel edge), and through rank-table builds
// scanning the spine up to the atomic watermark while it still moves.
func TestDictPublicationRace(t *testing.T) {
	s := New()
	knows := iri("knows")
	s.MustAdd(tri(iri("seed"), knows, iri("seed2")))
	knowsID, ok := s.Lookup(knows)
	if !ok {
		t.Fatal("seed predicate not interned")
	}

	const (
		writers   = 3
		perWriter = 300
	)
	terms := make(chan rdf.Term, 256)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := NewBulkLoader(s)
			for i := 0; i < perWriter; i++ {
				subj := iri(fmt.Sprintf("rw%d-%d", w, i))
				s.MustAdd(tri(subj, knows, lit(fmt.Sprintf("val %d-%d", w, i))))
				select {
				case terms <- subj:
				default:
				}
				if err := l.AddAll([]rdf.Triple{
					tri(iri(fmt.Sprintf("bw%d-%d", w, i)), knows, lit(fmt.Sprintf("bv %d-%d", w, i))),
				}); err != nil {
					t.Error(err)
					return
				}
				if i%64 == 0 {
					l.Commit()
				}
			}
			l.Commit()
		}(w)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var rg sync.WaitGroup
	// Reader A: every ID seen inside a MatchIDs callback must resolve to
	// a real term — a zero Kind would mean ResolveID saw a slot before
	// its write was published.
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			s.MatchIDs(Wildcard, knowsID, Wildcard, func(a, b, c ID) bool {
				for _, id := range []ID{a, b, c} {
					if s.ResolveID(id).IsZero() {
						t.Errorf("ResolveID(%d) returned the zero term for an ID visible in an index", id)
						return false
					}
				}
				return true
			})
		}
	}()
	// Reader B: a term received over the channel was interned before the
	// send, so Lookup must find it and ResolveID must round-trip to the
	// exact term — stale-slice publication would break either half.
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-done:
				return
			case term := <-terms:
				id, ok := s.Lookup(term)
				if !ok {
					t.Errorf("Lookup(%v) missed a term published before the channel send", term)
					return
				}
				if got := s.ResolveID(id); got != term {
					t.Errorf("ResolveID(Lookup(%v)) = %v (torn or stale publication)", term, got)
					return
				}
			}
		}
	}()
	// Reader C: rank builds scan the spine for unlabeled terms while
	// writers are still interning; the build must read only slots below
	// the watermark, without racing the writes above it.
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-done:
				return
			default:
				s.dict.buildRanks()
			}
		}
	}()
	<-done
	rg.Wait()

	want := 1 + writers*perWriter*2
	if got := s.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}
