package store

import (
	"fmt"
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

// TestBulkAutoCommitCapsBuffer drives a loader past its auto-commit
// threshold without ever calling Commit and checks the ROADMAP
// contract: the staging buffer never exceeds the cap, and the
// auto-committed triples are already visible to readers.
func TestBulkAutoCommitCapsBuffer(t *testing.T) {
	s := New()
	l := NewBulkLoader(s)
	const cap = 64
	l.SetAutoCommitThreshold(cap)

	for i := 0; i < 10*cap; i++ {
		l.MustAdd(tri(iri(fmt.Sprintf("s%d", i)), iri("p"), lit(fmt.Sprint(i))))
		if p := len(l.buf); p > cap {
			t.Fatalf("pending = %d exceeds auto-commit threshold %d", p, cap)
		}
	}
	// 10*cap staged, every full cap-sized buffer flushed inline: at most
	// one partial buffer may still be pending.
	if got := s.Len() + len(l.buf); got != 10*cap {
		t.Fatalf("Len+Pending = %d, want %d", got, 10*cap)
	}
	if s.Len() < 9*cap {
		t.Fatalf("auto-commit did not publish: Len = %d", s.Len())
	}

	// The AddAll path must respect the cap too, even mid-batch.
	batch := make([]rdf.Triple, 3*cap)
	for i := range batch {
		batch[i] = tri(iri(fmt.Sprintf("t%d", i)), iri("p"), lit(fmt.Sprint(i)))
	}
	if err := l.AddAll(batch); err != nil {
		t.Fatal(err)
	}
	if p := len(l.buf); p > cap {
		t.Fatalf("pending after AddAll = %d exceeds threshold %d", p, cap)
	}
	l.Commit()
	if s.Len() != 13*cap {
		t.Fatalf("Len = %d, want %d", s.Len(), 13*cap)
	}

	// Disabling the cap restores stage-until-Commit.
	l.SetAutoCommitThreshold(0)
	for i := 0; i < 2*cap; i++ {
		l.MustAdd(tri(iri(fmt.Sprintf("u%d", i)), iri("p"), lit(fmt.Sprint(i))))
	}
	if p := len(l.buf); p != 2*cap {
		t.Fatalf("pending with cap disabled = %d, want %d", p, 2*cap)
	}
	l.Commit()
}

// TestBulkAutoCommitDefault pins the default threshold so callers can
// rely on ~12 MB peak staging without configuring anything.
func TestBulkAutoCommitDefault(t *testing.T) {
	if DefaultAutoCommit != 1<<20 {
		t.Fatalf("DefaultAutoCommit = %d, want %d", DefaultAutoCommit, 1<<20)
	}
	l := NewBulkLoader(New())
	if l.autoCommit != DefaultAutoCommit {
		t.Fatalf("new loader threshold = %d, want DefaultAutoCommit", l.autoCommit)
	}
}
