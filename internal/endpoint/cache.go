package endpoint

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"sapphire/internal/sparql"
)

// resultCache is the endpoint-layer query result cache: an LRU over
// evaluated result sets, keyed by (query text as received, store
// mutation epoch).
//
// The epoch in the key is the whole invalidation story. A mutation
// advances the store epoch, so every entry cached at the old epoch
// simply stops being addressable — no scan, no dirty bits, no
// per-mutation bookkeeping. Stale entries age out through the LRU like
// any other cold entry. The flip side is that correctness hinges on
// never filing a result under an epoch it doesn't belong to, which is
// why the eval callback reports whether its result is safe to cache
// (the endpoint re-reads the epoch after evaluation and declines when a
// write landed mid-eval).
//
// The text is the key as sent, unparsed: a repeat costs one epoch load
// and one map probe, with no parse. Two spellings of one query are two
// entries; the clients that repeat queries (the §5 crawl, the
// federation's pattern fetches, the benchmark) resend the same bytes.
//
// Capacity is accounted in bytes (estimated result footprint plus key),
// not entry count, because SPARQL result sets vary by orders of
// magnitude; a handful of full-class sweeps would otherwise hold as
// much memory as thousands of point lookups.
//
// Concurrent identical misses coalesce: the first caller evaluates, the
// rest wait for that flight and share its outcome (singleflight). This
// is what protects the store from the thundering herd the ROADMAP's
// "millions of users" workload implies — N identical queries arriving
// together cost one evaluation, not N.
//
// Cached *sparql.Results are shared between callers and must be treated
// as read-only; every consumer in this repo already does (the results
// table sorts through its own index indirection).
type resultCache struct {
	maxBytes int64

	mu      sync.Mutex
	ll      *list.List // front = most recently used
	entries map[cacheKey]*list.Element
	flights map[cacheKey]*flight
	bytes   int64

	hits, misses, evicted, coalesced int64
}

// cacheKey addresses one cached result: the query text as received and
// the store epoch the result was computed at.
type cacheKey struct {
	query string
	epoch uint64
}

type cacheEntry struct {
	key  cacheKey
	res  *sparql.Results
	size int64
}

// flight is one in-progress evaluation that concurrent identical misses
// wait on.
type flight struct {
	done chan struct{}
	res  *sparql.Results
	err  error
}

func newResultCache(maxBytes int64) *resultCache {
	return &resultCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  make(map[cacheKey]*list.Element),
		flights:  make(map[cacheKey]*flight),
	}
}

// getOrCompute returns the cached result for key, or evaluates it via
// eval, coalescing concurrent identical misses into a single
// evaluation. eval reports (result, cacheable, error); results marked
// non-cacheable are returned to all coalesced waiters but not stored.
func (c *resultCache) getOrCompute(ctx context.Context, key cacheKey, eval func() (*sparql.Results, bool, error)) (*sparql.Results, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.ll.MoveToFront(el)
			c.hits++
			res := el.Value.(*cacheEntry).res
			c.mu.Unlock()
			return res, nil
		}
		if f, ok := c.flights[key]; ok {
			c.coalesced++
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if f.err == nil {
				return f.res, nil
			}
			// The flight's error may be specific to the leader (its
			// context was canceled mid-eval); a waiter whose own context
			// is still live retries as a fresh flight.
			if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
				continue
			}
			return nil, f.err
		}
		c.misses++
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()

		res, _, err := c.lead(key, f, eval)
		return res, err
	}
}

// lead runs the flight leader's evaluation. Teardown is deferred so a
// panicking eval still removes the flight and releases its waiters — a
// leaked flight would wedge every future identical query behind a done
// channel nobody closes. The panic itself propagates after the waiters
// are failed.
func (c *resultCache) lead(key cacheKey, f *flight, eval func() (*sparql.Results, bool, error)) (res *sparql.Results, cacheable bool, err error) {
	completed := false
	defer func() {
		if completed {
			f.res, f.err = res, err
		} else {
			f.err = errors.New("endpoint: query evaluation panicked")
		}
		// Size the result before taking the lock: resultBytes walks
		// every row, and holding the mutex for that scan would stall
		// every concurrent hit behind one large insert.
		var size int64
		if completed && err == nil && cacheable {
			size = int64(len(key.query)) + resultBytes(res) + entryOverhead
		}
		c.mu.Lock()
		delete(c.flights, key)
		if size > 0 {
			c.insertLocked(key, res, size)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	res, cacheable, err = eval()
	completed = true
	return res, cacheable, err
}

// insertLocked files a result of the given pre-computed size under key
// and evicts from the LRU tail until the byte budget holds. Results too
// large to ever fit are not cached at all rather than evicting the
// entire cache for one entry.
func (c *resultCache) insertLocked(key cacheKey, res *sparql.Results, size int64) {
	if _, ok := c.entries[key]; ok {
		return
	}
	if size > c.maxBytes {
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, res: res, size: size})
	c.bytes += size
	for c.bytes > c.maxBytes {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		e := tail.Value.(*cacheEntry)
		c.ll.Remove(tail)
		delete(c.entries, e.key)
		c.bytes -= e.size
		c.evicted++
	}
}

// counters returns a snapshot of the hit/miss/evict/coalesced counters
// plus the live byte and entry gauges.
func (c *resultCache) counters() (hits, misses, evicted, coalesced, bytes int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evicted, c.coalesced, c.bytes, len(c.entries)
}

// entryOverhead approximates the fixed per-entry cost (list element,
// map slot, entry struct, Results header).
const entryOverhead = 160

// resultBytes estimates the heap footprint of a result set: string
// bytes plus per-term and per-row structural overhead. It underpins the
// cache's byte budget, so it errs on the generous side (map and header
// costs included) — better to evict early than to blow the budget.
func resultBytes(res *sparql.Results) int64 {
	n := int64(48)
	for _, v := range res.Vars {
		n += int64(len(v)) + 16
	}
	for _, row := range res.Rows {
		n += 48 // map header + slice slot
		for v, t := range row {
			n += int64(len(v)) + int64(len(t.Value)) + int64(len(t.Lang)) + int64(len(t.Datatype)) + 64
		}
	}
	return n
}
