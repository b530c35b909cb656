package store

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"sapphire/internal/rdf"
)

// shardedSubjects adds one triple per subject until the store has seen
// subjects in at least two distinct shards, returning one subject from
// shard A and one from a different shard B.
func shardedSubjects(t *testing.T, s *Store) (a, b rdf.Term) {
	t.Helper()
	if s.Shards() < 2 {
		t.Fatal("store is not sharded")
	}
	byShard := make(map[int]rdf.Term)
	for i := 0; i < 256; i++ {
		subj := iri(fmt.Sprintf("subj-%d", i))
		s.MustAdd(tri(subj, iri("p"), lit(fmt.Sprint(i))))
		id, ok := s.Lookup(subj)
		if !ok {
			t.Fatalf("subject %v not interned", subj)
		}
		byShard[s.shardIndex(id)] = subj
		if len(byShard) >= 2 {
			var out []rdf.Term
			for _, v := range byShard {
				out = append(out, v)
			}
			return out[0], out[1]
		}
	}
	t.Fatal("could not find subjects in two distinct shards")
	return rdf.Term{}, rdf.Term{}
}

// TestShardIsolationUnderWriteLock is the deterministic half of the
// "commit on shard A never blocks shard B" claim: with shard A's write
// lock held (exactly what a long bulk commit of A's slice does),
// subject-bound reads on shard B must complete. No timing heuristics on
// the success path — the read either returns or the test times out.
func TestShardIsolationUnderWriteLock(t *testing.T) {
	s := NewSharded(4)
	subjA, subjB := shardedSubjects(t, s)
	idA, _ := s.Lookup(subjA)

	shA := s.shardFor(idA)
	shA.mu.Lock() // a bulk commit of shard A holds exactly this lock
	done := make(chan int)
	go func() {
		n := s.Count(subjB, rdf.Term{}, rdf.Term{})
		n += len(s.MatchSlice(subjB, rdf.Term{}, rdf.Term{}))
		done <- n
	}()
	select {
	case n := <-done:
		if n != 2 {
			t.Errorf("shard-B read under shard-A write lock = %d results, want 2", n)
		}
	case <-time.After(5 * time.Second):
		t.Error("subject-bound read on shard B blocked behind shard A's write lock")
	}
	shA.mu.Unlock()
}

// TestShardCommitConcurrentReaders is the -race half: bulk commits land
// continuously while readers hammer subject-bound patterns on other
// shards. Per-shard commit atomicity means a subject-bound read must
// never observe a torn batch — every batch carries fanout triples for
// the probe subject, so its count must stay a multiple of fanout even
// though whole-batch (cross-shard) atomicity no longer holds.
func TestShardCommitConcurrentReaders(t *testing.T) {
	const (
		batches = 30
		fanout  = 8
	)
	s := NewSharded(4)
	probeA, probeB := shardedSubjects(t, s)
	base := s.Count(probeA, rdf.Term{}, rdf.Term{}) // one seed triple each
	grows := iri("grows")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, probe := range []rdf.Term{probeA, probeB} {
		wg.Add(1)
		go func(probe rdf.Term) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := s.Count(probe, grows, rdf.Term{}); n%fanout != 0 {
					t.Errorf("torn batch visible: Count(%v, grows, ?) = %d, not a multiple of %d", probe, n, fanout)
					return
				}
				got := 0
				s.Match(probe, grows, rdf.Term{}, func(rdf.Triple) bool { got++; return true })
				if got%fanout != 0 {
					t.Errorf("torn batch visible: Match(%v, grows, ?) streamed %d rows", probe, got)
					return
				}
			}
		}(probe)
	}

	l := NewBulkLoader(s)
	for bn := 0; bn < batches; bn++ {
		for i := 0; i < fanout; i++ {
			l.MustAdd(tri(probeA, grows, lit(fmt.Sprintf("a%d-%d", bn, i))))
			l.MustAdd(tri(probeB, grows, lit(fmt.Sprintf("b%d-%d", bn, i))))
		}
		if n := l.Commit(); n != 2*fanout {
			t.Fatalf("batch %d committed %d, want %d", bn, n, 2*fanout)
		}
	}
	close(stop)
	wg.Wait()
	if got := s.Count(probeA, grows, rdf.Term{}); got != batches*fanout {
		t.Fatalf("probeA rows = %d, want %d (base %d)", got, batches*fanout, base)
	}
}

// TestAggregateEpoch pins the sharded epoch contract: the aggregate
// moves iff some shard's triple set changed — adds to any shard move
// it, duplicates / staging / no-op commits do not, and a multi-shard
// commit moves it by at least one (per touched shard, not per triple).
func TestAggregateEpoch(t *testing.T) {
	s := NewSharded(4)
	if s.Epoch() != 0 {
		t.Fatalf("fresh store epoch = %d", s.Epoch())
	}
	subjA, subjB := shardedSubjects(t, s)
	e := s.Epoch()
	if e == 0 {
		t.Fatal("epoch did not advance on seeding adds")
	}

	// Duplicate adds on both shards: no change anywhere, no movement.
	for _, subj := range []rdf.Term{subjA, subjB} {
		if added, _ := s.Add(tri(subj, iri("p"), lit("dup"))); !added {
			t.Fatalf("setup: triple unexpectedly present")
		}
	}
	e = s.Epoch()
	for _, subj := range []rdf.Term{subjA, subjB} {
		if added, _ := s.Add(tri(subj, iri("p"), lit("dup"))); added {
			t.Fatal("duplicate reported as added")
		}
	}
	if s.Epoch() != e {
		t.Errorf("epoch moved on duplicate adds: %d -> %d", e, s.Epoch())
	}

	// Staging alone must not move the aggregate; the commit must.
	l := NewBulkLoader(s)
	l.MustAdd(tri(subjA, iri("q"), lit("staged-a")))
	l.MustAdd(tri(subjB, iri("q"), lit("staged-b")))
	if s.Epoch() != e {
		t.Errorf("epoch moved on staging: %d -> %d", e, s.Epoch())
	}
	if n := l.Commit(); n != 2 {
		t.Fatalf("Commit = %d, want 2", n)
	}
	e2 := s.Epoch()
	if e2 <= e {
		t.Errorf("epoch did not advance on commit: %d -> %d", e, e2)
	}

	// No-op commits (empty, duplicate-only) leave every shard alone.
	if n := l.Commit(); n != 0 {
		t.Fatalf("empty Commit = %d", n)
	}
	l.MustAdd(tri(subjA, iri("q"), lit("staged-a")))
	l.MustAdd(tri(subjB, iri("q"), lit("staged-b")))
	if n := l.Commit(); n != 0 {
		t.Fatalf("duplicate-only Commit = %d", n)
	}
	if s.Epoch() != e2 {
		t.Errorf("epoch moved on no-op commits: %d -> %d", e2, s.Epoch())
	}

	// A change confined to one shard moves the aggregate exactly once.
	s.MustAdd(tri(subjA, iri("q"), lit("only-a")))
	if got := s.Epoch(); got != e2+1 {
		t.Errorf("single-shard add moved aggregate by %d, want 1", got-e2)
	}
}

// shardWorkload replays one deterministic mixed workload (bulk batches,
// online adds, duplicates, multi-commit staging) into st.
func shardWorkload(t *testing.T, st *Store) {
	t.Helper()
	triples := bulkTestTriples(3000, 23)
	third := len(triples) / 3
	l := NewBulkLoader(st)
	if err := l.AddAll(triples[:third]); err != nil {
		t.Fatal(err)
	}
	l.Commit()
	// Online interleaving: a duplicate plus fresh triples via Add.
	st.MustAdd(triples[0])
	st.MustAdd(tri(iri("online"), iri("knows"), iri("o1")))
	for _, tr := range triples[third : 2*third] {
		if err := l.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	l.Commit()
	if err := st.AddAll(triples[2*third:]); err != nil {
		t.Fatal(err)
	}
}

// TestShardEquivalence pins the iteration contract across shard counts:
// for every pattern shape — including the wildcard-subject shapes that
// fan out and merge across shards — a multi-shard store must stream
// exactly the same triples in exactly the same order as a 1-shard store
// (which is the pre-sharding implementation), and every count, subject,
// and predicate view must agree.
func TestShardEquivalence(t *testing.T) {
	single := NewShardedDict(1, 1)
	shardWorkload(t, single)
	for _, cfg := range []struct{ shards, dictShards int }{
		{2, 1}, {3, 8}, {8, 1}, {8, 8},
	} {
		shards := cfg.shards
		t.Run(fmt.Sprintf("shards=%d,dict=%d", shards, cfg.dictShards), func(t *testing.T) {
			multi := NewShardedDict(shards, cfg.dictShards)
			shardWorkload(t, multi)

			if single.Len() != multi.Len() {
				t.Fatalf("Len: single %d, multi %d", single.Len(), multi.Len())
			}
			if got, want := dumpAll(multi), dumpAll(single); !reflect.DeepEqual(got, want) {
				t.Fatal("full-scan iteration differs from 1-shard store")
			}
			if got, want := multi.Subjects(), single.Subjects(); !reflect.DeepEqual(got, want) {
				t.Fatal("Subjects differ")
			}
			if got, want := multi.Predicates(), single.Predicates(); !reflect.DeepEqual(got, want) {
				t.Fatal("Predicates differ")
			}

			var z rdf.Term
			probes := bulkTestTriples(3000, 23)[:60]
			for _, tr := range probes {
				shapes := [][3]rdf.Term{
					{tr.S, tr.P, tr.O}, {tr.S, tr.P, z}, {tr.S, z, tr.O}, {z, tr.P, tr.O},
					{tr.S, z, z}, {z, tr.P, z}, {z, z, tr.O}, {z, z, z},
				}
				for _, sh := range shapes {
					want := single.MatchSlice(sh[0], sh[1], sh[2])
					got := multi.MatchSlice(sh[0], sh[1], sh[2])
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("Match(%v): order or content differs from 1-shard store\n got %d rows, want %d",
							sh, len(got), len(want))
					}
					if gc, wc := multi.Count(sh[0], sh[1], sh[2]), single.Count(sh[0], sh[1], sh[2]); gc != wc {
						t.Fatalf("Count(%v) = %d, want %d", sh, gc, wc)
					}
				}
			}

			// Early termination must behave identically mid-merge.
			for _, sh := range [][3]rdf.Term{{z, iri("knows"), z}, {z, z, z}} {
				for _, limit := range []int{1, 7, 100} {
					var got, want []rdf.Triple
					collect := func(dst *[]rdf.Triple) func(rdf.Triple) bool {
						return func(tr rdf.Triple) bool {
							*dst = append(*dst, tr)
							return len(*dst) < limit
						}
					}
					single.Match(sh[0], sh[1], sh[2], collect(&want))
					multi.Match(sh[0], sh[1], sh[2], collect(&got))
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("early-stop Match(%v, limit %d) differs", sh, limit)
					}
				}
			}

			// Aggregate views must agree too.
			if got, want := multi.PredicateFrequencies(), single.PredicateFrequencies(); !reflect.DeepEqual(got, want) {
				t.Fatal("PredicateFrequencies differ")
			}
			if got, want := multi.LiteralPredicateFrequencies(), single.LiteralPredicateFrequencies(); !reflect.DeepEqual(got, want) {
				t.Fatal("LiteralPredicateFrequencies differ")
			}
			if got, want := multi.DistinctLiterals(), single.DistinctLiterals(); got != want {
				t.Fatalf("DistinctLiterals = %d, want %d", got, want)
			}
			if got, want := multi.LiteralSignificance(), single.LiteralSignificance(); !reflect.DeepEqual(got, want) {
				t.Fatal("LiteralSignificance differs")
			}
		})
	}
}

// TestDefaultShards pins the default wiring: New() uses the process
// default (GOMAXPROCS at init), SetDefaultShards redirects subsequent
// News, and clamping holds at the floor.
func TestDefaultShards(t *testing.T) {
	orig := DefaultShards()
	defer SetDefaultShards(orig)
	if orig < 1 {
		t.Fatalf("DefaultShards = %d", orig)
	}
	if got := New().Shards(); got != orig {
		t.Fatalf("New().Shards() = %d, want %d", got, orig)
	}
	SetDefaultShards(3)
	if got := New().Shards(); got != 3 {
		t.Fatalf("after SetDefaultShards(3): %d", got)
	}
	SetDefaultShards(0)
	if got := New().Shards(); got != 1 {
		t.Fatalf("SetDefaultShards(0) should clamp to 1, got %d", got)
	}
	if got := NewSharded(-5).Shards(); got != 1 {
		t.Fatalf("NewSharded(-5).Shards() = %d, want 1", got)
	}
}

// TestShardEquivalenceWithRanks pins the rank-table compare path: the
// smaller equivalence workloads stay under the rank build floor, so
// this one loads enough distinct terms to cross it, forces a build on
// the sharded store, and asserts the label-driven merge still streams
// byte-identically to the 1-shard store — then interns more terms (now
// unlabeled, exercising the mixed label/string fallback) and checks
// again, before and after a second build.
func TestShardEquivalenceWithRanks(t *testing.T) {
	const n = 3000 // 2 triples/subject, distinct literal objects: > 4096 terms
	p := iri("p")
	typ := iri("type")
	build := func(shards int) *Store {
		s := NewShardedDict(shards, 4)
		l := NewBulkLoader(s)
		for i := 0; i < n; i++ {
			subj := iri(fmt.Sprintf("rs%d", i))
			l.MustAdd(tri(subj, typ, iri("C")))
			l.MustAdd(tri(subj, p, lit(fmt.Sprintf("rank value %d", i))))
		}
		l.Commit()
		return s
	}
	single := build(1)
	multi := build(8)
	if multi.dict.terms.Load() < rankMinTerms {
		t.Fatalf("workload too small to cross the rank floor: %d terms", multi.dict.terms.Load())
	}
	multi.dict.buildRanks()
	if multi.dict.ranks.Load() == nil {
		t.Fatal("rank build published no table")
	}

	check := func(stage string) {
		t.Helper()
		var z rdf.Term
		for _, sh := range [][3]rdf.Term{
			{z, p, z}, {z, typ, z}, {z, z, lit("rank value 7")}, {z, z, z},
		} {
			want := single.MatchSlice(sh[0], sh[1], sh[2])
			got := multi.MatchSlice(sh[0], sh[1], sh[2])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Match(%v) differs from 1-shard store (%d vs %d rows)",
					stage, sh, len(got), len(want))
			}
		}
		if got, want := multi.Subjects(), single.Subjects(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Subjects differ", stage)
		}
		if got, want := multi.Predicates(), single.Predicates(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Predicates differ", stage)
		}
	}
	check("labeled")

	// Fresh terms after the build are unlabeled: merges now mix label
	// compares with the string fallback. Interleave new literals between
	// the old ones ("rank valuf ..." sorts after every "rank value ...",
	// "rank valud ..." before) to make the mixing real.
	for _, st := range []*Store{single, multi} {
		for i := 0; i < 64; i++ {
			subj := iri(fmt.Sprintf("fresh%d", i))
			st.MustAdd(tri(subj, p, lit(fmt.Sprintf("rank valud %d", i))))
			st.MustAdd(tri(subj, typ, iri("C")))
		}
	}
	check("mixed")

	multi.dict.buildRanks()
	check("relabeled")
}

// TestOrderLabelsNeverZeroForRealTerms is the rank-label audit behind
// the evaluator's top-k fast path: topKOp treats label 0 as "unlabeled,
// compare terms", so a real term labeled 0 would silently change which
// comparison path runs. The label construction makes 0 impossible —
// labels are (k+1)*stride with stride >= 1 — and this test pins that
// for every ID occurring in any triple, across shardings and after
// incremental growth + rebuild.
func TestOrderLabelsNeverZeroForRealTerms(t *testing.T) {
	for _, shards := range []int{1, 8} {
		s := NewSharded(shards)
		for i := 0; i < 200; i++ {
			subj := rdf.NewIRI(fmt.Sprintf("http://x/s%d", i))
			s.MustAdd(rdf.NewTriple(subj, rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://x/T")))
			s.MustAdd(rdf.NewTriple(subj, rdf.NewIRI("http://x/v"),
				rdf.NewLiteral(fmt.Sprintf("val %d", i))))
		}
		s.BuildOrderLabels()
		label, _ := s.OrderLabels()
		if label == nil {
			t.Fatal("no rank table after BuildOrderLabels")
		}
		check := func(stage string) {
			seen := map[ID]bool{}
			s.MatchIDs(0, 0, 0, func(a, b, c ID) bool {
				for _, id := range [3]ID{a, b, c} {
					if !seen[id] {
						seen[id] = true
						if label(id) == 0 {
							t.Fatalf("shards=%d %s: term %s (id %d) has rank label 0 — the evaluator would misread it as unlabeled",
								shards, stage, s.ResolveID(id), id)
						}
					}
				}
				return true
			})
			if len(seen) == 0 {
				t.Fatalf("shards=%d %s: no ids enumerated", shards, stage)
			}
		}
		check("initial build")

		// Terms interned after the snapshot legitimately report 0 through
		// the old view; after a rebuild every occurring term labels nonzero
		// again.
		for i := 0; i < 50; i++ {
			subj := rdf.NewIRI(fmt.Sprintf("http://x/extra%d", i))
			s.MustAdd(rdf.NewTriple(subj, rdf.NewIRI("http://x/v"), rdf.NewLiteral(fmt.Sprintf("zzz %d", i))))
		}
		s.BuildOrderLabels()
		label, _ = s.OrderLabels()
		check("after growth + rebuild")
	}
}
