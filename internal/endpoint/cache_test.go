package endpoint

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
	"sapphire/internal/store"
)

// dump renders a result set byte-exactly, rows in evaluation order, so
// two dumps compare equal iff the results are identical to the byte —
// same vars, same rows, same order.
func dump(res *sparql.Results) string {
	var b strings.Builder
	b.WriteString(strings.Join(res.Vars, ","))
	for _, row := range res.Rows {
		b.WriteByte('\n')
		for i, v := range res.Vars {
			if i > 0 {
				b.WriteByte('|')
			}
			t := row[v]
			b.WriteString(t.String())
		}
	}
	return b.String()
}

func mustQuery(t testing.TB, ep Endpoint, q string) *sparql.Results {
	t.Helper()
	res, err := ep.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return res
}

// TestCacheHitServesIdenticalResult pins the basic contract: the second
// identical query text is a hit and returns the same rows. The key is
// the text as sent, so a second spelling of the same query is a second
// entry with a byte-identical answer, and every hit is an exact-text
// hit (CacheRawHits == CacheHits after every call).
func TestCacheHitServesIdenticalResult(t *testing.T) {
	ep := NewLocal("c", testStore(t, 20), Limits{CacheBytes: 1 << 20})
	q := `SELECT ?s ?n WHERE { ?s a <http://x/Person> . ?s <http://x/name> ?n . }`
	variant := "SELECT ?s ?n\nWHERE {\n  ?s a <http://x/Person> .\n  ?s <http://x/name> ?n .\n}"
	var first string
	for i, step := range []struct {
		query                 string
		hits, misses, entries int64
	}{
		{q, 0, 1, 1},
		{q, 1, 1, 1},
		{variant, 1, 2, 2},
		{variant, 2, 2, 2},
	} {
		d := dump(mustQuery(t, ep, step.query))
		if i == 0 {
			first = d
		} else if d != first {
			t.Fatalf("call %d answered differently:\n%s\nvs\n%s", i, d, first)
		}
		st := ep.Stats()
		if st.CacheHits != step.hits || st.CacheMisses != step.misses || int64(st.CacheEntries) != step.entries {
			t.Errorf("call %d: hits %d misses %d entries %d, want %d/%d/%d",
				i, st.CacheHits, st.CacheMisses, st.CacheEntries, step.hits, step.misses, step.entries)
		}
		if st.CacheRawHits != st.CacheHits {
			t.Errorf("call %d: CacheRawHits %d != CacheHits %d", i, st.CacheRawHits, st.CacheHits)
		}
		if st.CacheBytes <= 0 {
			t.Errorf("call %d: cache bytes %d", i, st.CacheBytes)
		}
	}
}

// TestCacheEpochInvalidation pins that a mutation makes every cached
// answer unreachable: after Add and after BulkLoader.Commit the same
// query re-evaluates and sees the new data.
func TestCacheEpochInvalidation(t *testing.T) {
	s := testStore(t, 3)
	ep := NewLocal("c", s, Limits{CacheBytes: 1 << 20})
	q := `SELECT ?s WHERE { ?s a <http://x/Person> . }`
	if got := len(mustQuery(t, ep, q).Rows); got != 3 {
		t.Fatalf("rows = %d, want 3", got)
	}
	s.MustAdd(rdf.NewTriple(rdf.NewIRI("http://x/new1"), rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://x/Person")))
	if got := len(mustQuery(t, ep, q).Rows); got != 4 {
		t.Fatalf("after Add: rows = %d, want 4 (stale cache served?)", got)
	}
	l := store.NewBulkLoader(s)
	l.MustAdd(rdf.NewTriple(rdf.NewIRI("http://x/new2"), rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://x/Person")))
	if got := len(mustQuery(t, ep, q).Rows); got != 4 {
		t.Fatalf("staged-but-uncommitted rows visible: %d, want 4", got)
	}
	l.Commit()
	if got := len(mustQuery(t, ep, q).Rows); got != 5 {
		t.Fatalf("after Commit: rows = %d, want 5 (stale cache served?)", got)
	}
	st := ep.Stats()
	// Four queries spanned three epochs: the staged-but-uncommitted
	// query shares the post-Add epoch and scores the only hit.
	if st.CacheMisses != 3 {
		t.Errorf("misses = %d, want 3 (epochs must key the cache)", st.CacheMisses)
	}
	if st.CacheHits != 1 {
		t.Errorf("hits = %d, want 1", st.CacheHits)
	}
}

// TestCacheEvictionHoldsByteBudget fills a tiny cache with distinct
// query results and checks the LRU keeps the byte gauge under budget,
// counts evictions, and still serves correct answers.
func TestCacheEvictionHoldsByteBudget(t *testing.T) {
	const budget = 4 << 10
	ep := NewLocal("c", testStore(t, 50), Limits{CacheBytes: budget})
	for i := 0; i < 50; i++ {
		q := fmt.Sprintf(`SELECT ?n WHERE { <http://x/p%d> <http://x/name> ?n . }`, i)
		res := mustQuery(t, ep, q)
		if len(res.Rows) != 1 || res.Rows[0]["n"].Value != fmt.Sprintf("Person %d", i) {
			t.Fatalf("query %d wrong result: %v", i, res.Sorted())
		}
		if st := ep.Stats(); st.CacheBytes > budget {
			t.Fatalf("cache bytes %d exceed budget %d", st.CacheBytes, budget)
		}
	}
	st := ep.Stats()
	if st.CacheEvicted == 0 {
		t.Fatalf("no evictions after 50 distinct queries in a %dB cache: %+v", budget, st)
	}
	if st.CacheEntries == 0 {
		t.Errorf("cache emptied itself: %+v", st)
	}
	// Results larger than the whole budget must not wipe the cache.
	big := NewLocal("b", testStore(t, 400), Limits{CacheBytes: 2 << 10})
	mustQuery(t, big, `SELECT ?s ?n WHERE { ?s <http://x/name> ?n . }`)
	if st := big.Stats(); st.CacheBytes != 0 || st.CacheEvicted != 0 {
		t.Errorf("oversized result was cached or evicted others: %+v", st)
	}
}

// TestCacheSingleflightCoalesces drives the coalescing path
// deterministically at the cache level: one leader evaluates while N
// followers wait, every caller gets the same result, and exactly one
// miss is counted.
func TestCacheSingleflightCoalesces(t *testing.T) {
	c := newResultCache(1 << 20)
	key := cacheKey{query: "q", epoch: 7}
	want := &sparql.Results{Vars: []string{"x"}}
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]*sparql.Results, 9)
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := c.getOrCompute(context.Background(), key, func() (*sparql.Results, bool, error) {
			close(started)
			<-release
			return want, true, nil
		})
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		results[0] = res
	}()
	<-started

	const followers = 8
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.getOrCompute(context.Background(), key, func() (*sparql.Results, bool, error) {
				t.Errorf("follower %d evaluated instead of coalescing", i)
				return nil, false, nil
			})
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
			}
			results[i] = res
		}(i)
	}
	// Wait until every follower is parked on the flight, then release
	// the leader.
	for deadline := time.Now().Add(5 * time.Second); ; {
		_, _, _, coalesced, _, _ := c.counters()
		if coalesced == followers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers never coalesced: %d/%d", coalesced, followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i, res := range results {
		if res != want {
			t.Fatalf("caller %d got %p, want shared %p", i, res, want)
		}
	}
	hits, misses, _, coalesced, _, _ := c.counters()
	if misses != 1 || coalesced != followers || hits != 0 {
		t.Errorf("counters = hits %d misses %d coalesced %d, want 0/1/%d", hits, misses, coalesced, followers)
	}
	// The flight's outcome is now cached: the next call is a plain hit.
	res, err := c.getOrCompute(context.Background(), key, func() (*sparql.Results, bool, error) {
		t.Error("hit path evaluated")
		return nil, false, nil
	})
	if err != nil || res != want {
		t.Fatalf("post-flight hit = (%p, %v)", res, err)
	}
}

// TestCacheFlightLeaderCanceled pins the retry rule: when the leader
// dies of its own context, a waiting follower with a live context
// re-evaluates instead of inheriting the cancellation.
func TestCacheFlightLeaderCanceled(t *testing.T) {
	c := newResultCache(1 << 20)
	key := cacheKey{query: "q", epoch: 1}
	started := make(chan struct{})
	release := make(chan struct{})

	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.getOrCompute(context.Background(), key, func() (*sparql.Results, bool, error) {
			close(started)
			<-release
			return nil, false, context.Canceled // leader's ctx died mid-eval
		})
		leaderErr <- err
	}()
	<-started

	want := &sparql.Results{Vars: []string{"y"}}
	followerDone := make(chan *sparql.Results, 1)
	go func() {
		res, err := c.getOrCompute(context.Background(), key, func() (*sparql.Results, bool, error) {
			return want, true, nil // follower retries as the new leader
		})
		if err != nil {
			t.Errorf("follower: %v", err)
		}
		followerDone <- res
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		_, _, _, coalesced, _, _ := c.counters()
		if coalesced == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("leader err = %v", err)
	}
	if res := <-followerDone; res != want {
		t.Errorf("follower res = %p, want retry result", res)
	}
	// Deterministic errors (not cancellation) propagate to waiters
	// without a retry storm.
	sentinel := errors.New("boom")
	key2 := cacheKey{query: "q2", epoch: 1}
	if _, err := c.getOrCompute(context.Background(), key2, func() (*sparql.Results, bool, error) {
		return nil, false, sentinel
	}); !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
}

// TestCacheFlightLeaderPanics pins panic-safety: a leader whose eval
// panics must still tear its flight down — waiters get an error (not a
// hang), the panic propagates to the leader's caller, and the key is
// usable again afterwards.
func TestCacheFlightLeaderPanics(t *testing.T) {
	c := newResultCache(1 << 20)
	key := cacheKey{query: "q", epoch: 1}
	started := make(chan struct{})
	release := make(chan struct{})

	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		_, _ = c.getOrCompute(context.Background(), key, func() (*sparql.Results, bool, error) {
			close(started)
			<-release
			panic("eval exploded")
		})
	}()
	<-started

	waiterErr := make(chan error, 1)
	go func() {
		_, err := c.getOrCompute(context.Background(), key, func() (*sparql.Results, bool, error) {
			return &sparql.Results{}, false, nil
		})
		waiterErr <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		_, _, _, coalesced, _, _ := c.counters()
		if coalesced == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if p := <-panicked; p == nil {
		t.Fatal("leader panic was swallowed")
	}
	if err := <-waiterErr; err == nil {
		t.Fatal("waiter of a panicked flight must get an error, not success")
	}
	// The flight is gone: a fresh call evaluates normally.
	want := &sparql.Results{Vars: []string{"ok"}}
	res, err := c.getOrCompute(context.Background(), key, func() (*sparql.Results, bool, error) {
		return want, true, nil
	})
	if err != nil || res != want {
		t.Fatalf("post-panic call = (%p, %v), want fresh eval", res, err)
	}
}

// TestCacheUncacheableNotStored pins that an eval reporting
// cacheable=false (the endpoint does this when the epoch moved
// mid-eval) is returned but not filed.
func TestCacheUncacheableNotStored(t *testing.T) {
	c := newResultCache(1 << 20)
	key := cacheKey{query: "q", epoch: 1}
	res := &sparql.Results{}
	evals := 0
	for i := 0; i < 3; i++ {
		got, err := c.getOrCompute(context.Background(), key, func() (*sparql.Results, bool, error) {
			evals++
			return res, false, nil
		})
		if err != nil || got != res {
			t.Fatalf("call %d = (%p, %v)", i, got, err)
		}
	}
	if evals != 3 {
		t.Errorf("evals = %d, want 3 (uncacheable result was stored)", evals)
	}
	if _, _, _, _, bytes, entries := c.counters(); bytes != 0 || entries != 0 {
		t.Errorf("cache not empty: %d bytes, %d entries", bytes, entries)
	}
}

// cacheWorkloadQueries is the randomized query pool TestCacheEquivalence
// draws from: point lookups, class sweeps, two-hop joins, aggregates,
// and modifier variations, parameterized by subject index.
func cacheWorkloadQueries(rng *rand.Rand, n int) string {
	i := rng.Intn(n * 2) // half the lookups miss existing subjects
	switch rng.Intn(6) {
	case 0:
		return fmt.Sprintf(`SELECT ?n WHERE { <http://x/p%d> <http://x/name> ?n . }`, i)
	case 1:
		return `SELECT ?s WHERE { ?s a <http://x/Person> . }`
	case 2:
		return `SELECT ?s ?n WHERE { ?s a <http://x/Person> . ?s <http://x/name> ?n . }`
	case 3:
		return `SELECT (COUNT(?s) AS ?c) WHERE { ?s a <http://x/Person> . }`
	case 4:
		return fmt.Sprintf(`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY ?n LIMIT %d`, 1+rng.Intn(10))
	default:
		return fmt.Sprintf(`SELECT ?p ?o WHERE { <http://x/p%d> ?p ?o . }`, i)
	}
}

// TestCacheEquivalence is the property test pinning the cache's whole
// correctness story: under a deterministic randomized workload of
// queries interleaved with single Adds and staged bulk commits, every
// answer served through the cache is byte-identical — same rows, same
// order — to a fresh uncached evaluation performed at the same moment.
func TestCacheEquivalence(t *testing.T) {
	const seed = 42
	rng := rand.New(rand.NewSource(seed))
	const base = 30
	s := testStore(t, base)
	cached := NewLocal("cached", s, Limits{CacheBytes: 1 << 20})
	uncached := NewLocal("fresh", s, Limits{})

	typ := rdf.NewIRI(rdf.RDFType)
	person := rdf.NewIRI("http://x/Person")
	name := rdf.NewIRI("http://x/name")
	next := base
	loader := store.NewBulkLoader(s)

	mutate := func() {
		switch rng.Intn(3) {
		case 0: // online single Add
			subj := rdf.NewIRI(fmt.Sprintf("http://x/p%d", next))
			s.MustAdd(rdf.NewTriple(subj, typ, person))
			next++
		case 1: // staged bulk batch, committed at once
			batch := 1 + rng.Intn(5)
			for j := 0; j < batch; j++ {
				subj := rdf.NewIRI(fmt.Sprintf("http://x/p%d", next))
				loader.MustAdd(rdf.NewTriple(subj, typ, person))
				loader.MustAdd(rdf.NewTriple(subj, name,
					rdf.NewLangLiteral(fmt.Sprintf("Person %d", next), "en")))
				next++
			}
			loader.Commit()
		default: // duplicate Add: must NOT invalidate anything
			s.MustAdd(rdf.NewTriple(rdf.NewIRI("http://x/p0"), typ, person))
		}
	}

	for round := 0; round < 60; round++ {
		for k := 0; k < 8; k++ {
			q := cacheWorkloadQueries(rng, next)
			got := dump(mustQuery(t, cached, q))
			want := dump(mustQuery(t, uncached, q))
			if got != want {
				t.Fatalf("round %d query %q:\ncached:\n%s\nfresh:\n%s", round, q, got, want)
			}
		}
		mutate()
	}
	st := cached.Stats()
	if st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Fatalf("workload exercised no cache transitions: %+v", st)
	}
	t.Logf("equivalence held over %d queries: hits=%d misses=%d evicted=%d",
		st.Queries, st.CacheHits, st.CacheMisses, st.CacheEvicted)
}

// TestCachedQueryConcurrentWithWrites is the -race pin for the cache
// vs. writer story. A writer alternates online Adds (predicate
// "online") with staged bulk commits (predicate "batch", always in
// all-or-nothing batches of batchSize rows); readers hammer the cached
// endpoint with a fixed query mix. The invariant: a batch-predicate
// result always contains a multiple of batchSize rows — a cached (or
// fresh) result reflecting a half-committed bulk load would break the
// multiple. Run with -race this also proves the cache's internal
// bookkeeping is data-race free against the store's epoch publication.
func TestCachedQueryConcurrentWithWrites(t *testing.T) {
	s := store.New()
	online := rdf.NewIRI("http://x/online")
	batchP := rdf.NewIRI("http://x/batch")
	// Seed one batch so the query never starts empty.
	const batchSize = 8
	const batches = 40
	l := store.NewBulkLoader(s)
	addBatch := func(k int) {
		for i := 0; i < batchSize; i++ {
			l.MustAdd(rdf.NewTriple(
				rdf.NewIRI(fmt.Sprintf("http://x/b%d_%d", k, i)),
				batchP, rdf.NewLiteral(fmt.Sprintf("v%d", k))))
		}
		if n := l.Commit(); n != batchSize {
			t.Errorf("batch %d committed %d rows, want %d", k, n, batchSize)
		}
	}
	addBatch(0)

	ep := NewLocal("c", s, Limits{CacheBytes: 1 << 20})
	qBatch := `SELECT ?s ?o WHERE { ?s <http://x/batch> ?o . }`
	qOnline := `SELECT ?s WHERE { ?s <http://x/online> ?o . }`
	qJoin := `SELECT (COUNT(?s) AS ?c) WHERE { ?s <http://x/batch> ?o . }`

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				switch i % 3 {
				case 0:
					res, err := ep.Query(ctx, qBatch)
					if err != nil {
						t.Errorf("reader %d: %v", g, err)
						return
					}
					if len(res.Rows)%batchSize != 0 {
						t.Errorf("reader %d observed torn bulk commit: %d rows, not a multiple of %d",
							g, len(res.Rows), batchSize)
						return
					}
				case 1:
					if _, err := ep.Query(ctx, qOnline); err != nil {
						t.Errorf("reader %d: %v", g, err)
						return
					}
				default:
					res, err := ep.Query(ctx, qJoin)
					if err != nil {
						t.Errorf("reader %d: %v", g, err)
						return
					}
					// COUNT over the batch predicate obeys the same
					// all-or-nothing invariant.
					var c int
					fmt.Sscan(res.Rows[0]["c"].Value, &c)
					if c%batchSize != 0 {
						t.Errorf("reader %d count %d not a multiple of %d", g, c, batchSize)
						return
					}
				}
			}
		}(g)
	}

	// Pace the writer so readers interleave with every commit instead of
	// racing a writer that finishes before they start.
	for k := 1; k < batches; k++ {
		addBatch(k)
		s.MustAdd(rdf.NewTriple(
			rdf.NewIRI(fmt.Sprintf("http://x/o%d", k)), online, rdf.NewLiteral("x")))
		time.Sleep(500 * time.Microsecond)
	}
	close(done)
	wg.Wait()

	if got := s.Count(rdf.Term{}, batchP, rdf.Term{}); got != batches*batchSize {
		t.Fatalf("final batch rows = %d, want %d", got, batches*batchSize)
	}
	st := ep.Stats()
	if st.Queries == 0 || st.CacheMisses == 0 {
		t.Fatalf("readers never ran against the writer: %+v", st)
	}
	t.Logf("concurrent run: queries=%d hits=%d misses=%d coalesced=%d",
		st.Queries, st.CacheHits, st.CacheMisses, st.CacheCoalesced)
}
