package store

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"sapphire/internal/rdf"
)

func benchStoreSharded(n, shards int) *Store {
	s := NewSharded(shards)
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

func benchStore(n int) *Store { return benchStoreSharded(n, DefaultShards()) }

// warmRanks drives the dictionary's background rank build to completion
// so steady-state merge benchmarks measure label compares, not the
// string-compare fallback of the warmup window. No-op below the build
// floor (small stores never build a table).
func warmRanks(b *testing.B, s *Store) {
	b.Helper()
	if s.dict.terms.Load() < rankMinTerms {
		return
	}
	s.dict.maybeBuildRanks()
	for i := 0; s.dict.ranksBuilding.Load() || s.dict.ranks.Load() == nil; i++ {
		if i > 10000 {
			b.Fatal("rank build did not finish")
		}
		time.Sleep(time.Millisecond)
	}
}

// shardModes are the two configurations the shard-sensitive benchmarks
// pin: single (the pre-sharding behavior, no merge overhead) and a
// fixed 8 shards (pays the cross-shard term-ordered merge; fixed, not
// GOMAXPROCS, so benchmark names and numbers compare across machines —
// the acceptance measurement in the ROADMAP is also at 8).
var shardModes = []struct {
	name   string
	shards int
}{
	{"single", 1},
	{"sharded8", 8},
}

// BenchmarkMatchByPredicate measures the POS index sweep — a wildcard-
// subject shape, so the sharded variant exercises the cross-shard merge.
func BenchmarkMatchByPredicate(b *testing.B) {
	for _, mode := range shardModes {
		b.Run(mode.name, func(b *testing.B) {
			s := benchStoreSharded(5000, mode.shards)
			p := rdf.NewIRI("http://x/p")
			warmRanks(b, s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				s.Match(rdf.Term{}, p, rdf.Term{}, func(rdf.Triple) bool { n++; return true })
				if n != 5000 {
					b.Fatalf("matched %d", n)
				}
			}
		})
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

// stallTriples is the staged-batch size BenchmarkCommitReadStall
// commits while sampling reader latency. The CI/bench-suite default
// keeps the run short; set SAPPHIRE_STALL_TRIPLES=1000000 to reproduce
// the ROADMAP acceptance measurement at full scale.
func stallTriples() int {
	if v := os.Getenv("SAPPHIRE_STALL_TRIPLES"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 200_000
}

// BenchmarkCommitReadStall measures what sharding exists to fix: the
// stall a subject-bound reader sees while a large BulkLoader.Commit
// builds indexes. The single variant holds one store-wide write lock
// for the whole build, so a reader's worst case is the full commit
// duration; the sharded variant commits shard by shard, bounding any
// one stall to roughly one shard's slice of the batch. Reported
// metrics: p99 and max observed read latency (µs) and the commit wall
// time (ms). The ROADMAP acceptance bar: with 8 shards at 1M staged
// triples (SAPPHIRE_STALL_TRIPLES=1000000), sharded p99 < 1/4 single.
func BenchmarkCommitReadStall(b *testing.B) {
	for _, mode := range shardModes {
		b.Run(mode.name, func(b *testing.B) {
			nTriples := stallTriples()
			base := benchTriples(20_000)
			batch := make([]rdf.Triple, 0, nTriples)
			p := rdf.NewIRI("http://x/bulk")
			typ := rdf.NewIRI(rdf.RDFType)
			cls := rdf.NewIRI("http://x/B")
			for i := 0; i < nTriples/2; i++ {
				subj := rdf.NewIRI(fmt.Sprintf("http://x/bulk%d", i))
				batch = append(batch,
					rdf.NewTriple(subj, p, rdf.NewLiteral(fmt.Sprintf("v%d", i))),
					rdf.NewTriple(subj, typ, cls))
			}
			var p99s, maxes, walls []float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := NewSharded(mode.shards)
				if err := s.AddAll(base); err != nil {
					b.Fatal(err)
				}
				l := NewBulkLoader(s)
				l.SetAutoCommitThreshold(0)
				if err := l.AddAll(batch); err != nil {
					b.Fatal(err)
				}
				probes := make([]rdf.Term, 256)
				for j := range probes {
					probes[j] = base[(j*97)%len(base)].S
				}
				var stop atomic.Bool
				lat := make([]time.Duration, 0, 1<<16)
				done := make(chan struct{})
				go func() {
					defer close(done)
					for j := 0; !stop.Load(); j++ {
						t0 := time.Now()
						if s.Count(probes[j%len(probes)], rdf.Term{}, rdf.Term{}) == 0 {
							b.Error("probe subject missing")
							return
						}
						lat = append(lat, time.Since(t0))
					}
				}()
				b.StartTimer()
				t0 := time.Now()
				if l.Commit() != nTriples {
					b.Fatal("short commit")
				}
				wall := time.Since(t0)
				b.StopTimer()
				stop.Store(true)
				<-done
				if len(lat) == 0 {
					b.Fatal("sampler took no measurements")
				}
				sort.Slice(lat, func(a, c int) bool { return lat[a] < lat[c] })
				p99 := lat[len(lat)*99/100]
				p99s = append(p99s, float64(p99.Microseconds()))
				maxes = append(maxes, float64(lat[len(lat)-1].Microseconds()))
				walls = append(walls, float64(wall.Milliseconds()))
				b.StartTimer()
			}
			b.ReportMetric(mean(p99s), "p99-stall-us")
			b.ReportMetric(mean(maxes), "max-stall-us")
			b.ReportMetric(mean(walls), "commit-ms")
		})
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// BenchmarkMatchSubjectsMerge measures the (?s P O) fan-out: 5000
// subjects all pointing at one hub object through one predicate, so the
// sharded variant merges disjoint term-sorted per-shard subject runs
// (POS innermost lists) through the loser tree — the second
// wildcard-merge shape, beside the (?s P ?o) sweep of
// BenchmarkMatchByPredicate.
func BenchmarkMatchSubjectsMerge(b *testing.B) {
	for _, mode := range shardModes {
		b.Run(mode.name, func(b *testing.B) {
			s := NewSharded(mode.shards)
			hub := rdf.NewIRI("http://x/hub")
			p := rdf.NewIRI("http://x/p")
			for i := 0; i < 5000; i++ {
				s.MustAdd(rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://x/s%d", i)), p, hub))
			}
			warmRanks(b, s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				s.Match(rdf.Term{}, p, hub, func(rdf.Triple) bool { n++; return true })
				if n != 5000 {
					b.Fatalf("matched %d", n)
				}
			}
		})
	}
}

// BenchmarkDictInternParallel measures dictionary interning throughput
// across dictionary shard counts: every goroutine interns its own
// stream of terms, cycling through a bounded window so the stream mixes
// fresh interning (shard write lock, range allocation, spine writes)
// with hit-path lookups (shard read lock) at steady state. With one
// dictionary shard every goroutine serializes on one mutex; with more,
// contention drops proportionally — run with -cpu=8 to see the scaling,
// while the pinned -cpu=1 CI row tracks the single-thread cost of the
// intern path itself.
func BenchmarkDictInternParallel(b *testing.B) {
	const window = 1 << 17
	for _, shards := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("dict%d", shards), func(b *testing.B) {
			d := newDict(shards)
			var gid atomic.Uint32
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				prefix := fmt.Sprintf("http://x/g%d/", gid.Add(1))
				i := 0
				for pb.Next() {
					d.intern(rdf.NewIRI(prefix + strconv.Itoa(i&(window-1))))
					i++
				}
			})
		})
	}
}
