package store

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"testing"

	"sapphire/internal/rdf"
)

// TestEpochAdvancesOnMutation pins the epoch contract: every change to
// the triple set moves the counter by exactly one (an Add, or a whole
// committed batch), and operations that change nothing (duplicate Add,
// empty Commit, staging without commit) leave it alone.
func TestEpochAdvancesOnMutation(t *testing.T) {
	s := New()
	if s.Epoch() != 0 {
		t.Fatalf("fresh store epoch = %d, want 0", s.Epoch())
	}
	s.MustAdd(tri(iri("a"), iri("p"), lit("1")))
	e1 := s.Epoch()
	if e1 != 1 {
		t.Fatalf("epoch after one Add = %d, want 1", e1)
	}
	// A duplicate changes nothing and must not advance the epoch: the
	// cache layers above would otherwise discard entries for no reason.
	if added, err := s.Add(tri(iri("a"), iri("p"), lit("1"))); err != nil || added {
		t.Fatalf("duplicate Add = (%v, %v)", added, err)
	}
	if s.Epoch() != e1 {
		t.Errorf("epoch moved on duplicate Add: %d -> %d", e1, s.Epoch())
	}

	l := NewBulkLoader(s)
	l.MustAdd(tri(iri("b"), iri("p"), lit("2")))
	l.MustAdd(tri(iri("b2"), iri("p"), lit("2")))
	if s.Epoch() != e1 {
		t.Errorf("epoch moved on staging (before commit): %d -> %d", e1, s.Epoch())
	}
	if n := l.Commit(); n != 2 {
		t.Fatalf("Commit = %d, want 2", n)
	}
	e2 := s.Epoch()
	if e2 != e1+1 {
		t.Errorf("a committed batch moved the epoch %d -> %d, want exactly one step", e1, e2)
	}
	// Committing an empty buffer, or a buffer of duplicates, publishes
	// nothing and must not advance the epoch.
	if n := l.Commit(); n != 0 {
		t.Fatalf("empty Commit = %d, want 0", n)
	}
	l.MustAdd(tri(iri("b"), iri("p"), lit("2")))
	if n := l.Commit(); n != 0 {
		t.Fatalf("duplicate-only Commit = %d, want 0", n)
	}
	if s.Epoch() != e2 {
		t.Errorf("epoch moved on no-op commits: %d -> %d", e2, s.Epoch())
	}

	// AddAll routes through the bulk path; a batch with fresh triples
	// advances the epoch once, not per triple.
	if err := s.AddAll([]rdf.Triple{
		tri(iri("c"), iri("p"), lit("3")),
		tri(iri("d"), iri("p"), lit("4")),
	}); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != e2+1 {
		t.Errorf("AddAll moved the epoch %d -> %d, want exactly one step", e2, s.Epoch())
	}
}

// TestEpochReadableDuringWrites drives Epoch reads concurrently with
// writers under -race: the read path must never acquire the store lock
// (it is called on every cached query), and must be monotonic from any
// single reader's point of view.
func TestEpochReadableDuringWrites(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			e := s.Epoch()
			if e < last {
				t.Errorf("epoch went backwards: %d -> %d", last, e)
				return
			}
			last = e
		}
	}()
	l := NewBulkLoader(s)
	for i := 0; i < 500; i++ {
		s.MustAdd(tri(iri(fmt.Sprintf("s%d", i)), iri("p"), lit(fmt.Sprint(i))))
		l.MustAdd(tri(iri(fmt.Sprintf("b%d", i)), iri("p"), lit(fmt.Sprint(i))))
		if i%100 == 0 {
			l.Commit()
		}
	}
	l.Commit()
	close(stop)
	wg.Wait()
	if s.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", s.Len())
	}
}

// TestLoadNTriplesBoundsStaging streams more than loadCommitEvery
// triples through LoadNTriples and checks that it commits along the
// way instead of staging the whole document: the first loadCommitEvery
// lines (one triple, repeated) commit as one batch and the last line
// as a second, so the epoch moves twice. Staging everything until the
// end would commit once.
func TestLoadNTriplesBoundsStaging(t *testing.T) {
	pr, pw := io.Pipe()
	defer pr.Close()
	go func() {
		w := bufio.NewWriter(pw)
		for i := 0; i < loadCommitEvery; i++ {
			w.WriteString("<http://x/a> <http://x/p> <http://x/b> .\n")
		}
		w.WriteString("<http://x/a> <http://x/p> <http://x/c> .\n")
		pw.CloseWithError(w.Flush())
	}()
	s := New()
	if err := LoadNTriples(s, pr); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Epoch() != 2 {
		t.Fatalf("Len = %d, Epoch = %d; want 2 triples in 2 commits", s.Len(), s.Epoch())
	}
}
