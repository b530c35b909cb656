// Package endpoint provides SPARQL endpoint abstractions: an in-process
// endpoint wrapping a triple store with the resource limits that public
// endpoints impose (timeouts, cost-based rejection, result caps), plus an
// HTTP server and client speaking the SPARQL protocol with JSON results.
//
// The limits matter to Sapphire: the initialization strategy of Section 5
// (class-hierarchy descent, pagination) exists precisely because remote
// endpoints time out long-running queries, so the simulated endpoint must
// reproduce that failure mode deterministically.
package endpoint

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sapphire/internal/sparql"
	"sapphire/internal/store"
)

// Typed errors distinguishing the endpoint failure modes the paper's
// initialization logic reacts to.
var (
	// ErrTimeout means the query exceeded the endpoint's execution
	// budget; initialization responds by descending the class hierarchy
	// or tightening pagination.
	ErrTimeout = errors.New("endpoint: query timed out")
	// ErrRejected means the endpoint refused the query up front because
	// its estimated cost exceeded the admission threshold.
	ErrRejected = errors.New("endpoint: query rejected (estimated cost too high)")
	// ErrParse means the query text did not parse. Over HTTP it travels
	// as the "parse" envelope code / status 400, and Client maps it
	// back, so callers distinguish "my query is broken" (not worth
	// retrying or relaxing) from resource failures.
	ErrParse = errors.New("endpoint: query parse error")
)

// Endpoint is a SPARQL query service.
type Endpoint interface {
	// Name identifies the endpoint (a URL for remote ones).
	Name() string
	// Query parses and executes a SPARQL SELECT query.
	Query(ctx context.Context, query string) (*sparql.Results, error)
}

// Epoched is the optional Endpoint extension for mutation epochs. An
// endpoint that can report how many times its data has changed lets
// callers (the federation's pattern cache, any layered result cache)
// invalidate by comparison instead of by guesswork: same epoch, same
// answers. Local endpoints read the store's atomic counter; HTTP
// clients probe the server (see Client.Epoch). ok is false when the
// epoch is unknown — an unreachable server, or an endpoint
// implementation without mutation tracking — in which case the caller
// must fall back to manual invalidation.
type Epoched interface {
	Epoch(ctx context.Context) (epoch uint64, ok bool)
}

// StatsReporter is the optional Endpoint extension for serving
// counters; the /stats route (internal/serve) reports them for the
// served endpoint and every federation member that implements it.
type StatsReporter interface {
	Stats() Stats
}

// Stats counts endpoint activity; Sapphire's initialization reports these
// (the paper: ~3800 queries to DBpedia, ~200 timeouts). The Cache*
// fields are zero unless the endpoint runs a result cache
// (Limits.CacheBytes > 0).
type Stats struct {
	Queries  int64
	Timeouts int64
	Rejected int64
	Rows     int64

	// CacheHits counts queries served straight from the result cache
	// (no parse, no evaluation). CacheRawHits always equals CacheHits:
	// every hit is an exact-text hit now that the text is the key, and
	// the field stays only because benchmark/main.go's sparql-hot gate
	// still reads it. CacheMisses counts evaluations triggered
	// by a cache-enabled query; CacheCoalesced counts queries that
	// arrived while an identical evaluation was in flight and shared
	// its outcome instead of evaluating again. CacheEvicted counts
	// entries dropped to hold the byte budget.
	CacheHits      int64
	CacheRawHits   int64
	CacheMisses    int64
	CacheEvicted   int64
	CacheCoalesced int64

	// CacheBytes and CacheEntries are live gauges of the cache's
	// current footprint, not counters.
	CacheBytes   int64
	CacheEntries int
}

// Limits configures the simulated resource constraints of a Local
// endpoint. Zero values disable the corresponding limit.
type Limits struct {
	// MaxIntermediateRows aborts a query once its evaluation has
	// produced this many intermediate rows — the deterministic stand-in
	// for a wall-clock execution timeout.
	MaxIntermediateRows int
	// RejectEstimateAbove rejects queries whose admission estimate
	// (sparql.AdmissionEstimate: per pattern group, the exact count of
	// the pattern the planner drives the join with, summed over UNION
	// branches) exceeds this bound, modelling endpoints that refuse
	// obviously expensive queries outright. The store's counts are
	// exact, so the threshold reads directly as "refuse queries whose
	// driving scans really touch more than N rows".
	RejectEstimateAbove int
	// Latency is added to every query to model network round trip plus
	// queueing; used by the response-time experiments. It applies to
	// cache hits too: a result cache saves evaluation, not the wire.
	Latency time.Duration
	// CacheBytes bounds the endpoint's query result cache: evaluated
	// result sets are kept in an LRU keyed by (query text, store
	// epoch) until their estimated footprint exceeds this many bytes.
	// 0 disables caching. See resultCache for the design.
	CacheBytes int64
}

// DefaultRejectEstimate is the admission threshold DefaultLimits uses.
// When estimates were loose upper bounds, a useful threshold had to sit
// far above the real workload to avoid rejecting queries that were in
// fact cheap. Now that CardinalityEstimate is exact, the threshold is
// calibrated against true row counts: 100k pattern rows is roughly
// where a public endpoint's wall-clock timeout would kill the query
// anyway, so admission refuses it up front.
const DefaultRejectEstimate = 100_000

// DefaultCacheBytes is the result-cache budget the serving commands
// default to: 64 MiB holds tens of thousands of typical interactive
// result sets.
const DefaultCacheBytes int64 = 64 << 20

// DefaultLimits returns the resource constraints a simulated public
// endpoint defaults to: exact-estimate admission control at
// DefaultRejectEstimate, no intermediate-row cap, no latency. Use
// Limits{} for the warehouse (fully trusted, unlimited) configuration.
func DefaultLimits() Limits {
	return Limits{RejectEstimateAbove: DefaultRejectEstimate}
}

// Local is an Endpoint over an in-memory store.
type Local struct {
	name   string
	store  *store.Store
	limits Limits
	cache  *resultCache // nil when Limits.CacheBytes == 0

	mu    sync.Mutex
	stats Stats
}

// NewLocal wraps a store as an endpoint with the given limits.
func NewLocal(name string, st *store.Store, limits Limits) *Local {
	l := &Local{name: name, store: st, limits: limits}
	if limits.CacheBytes > 0 {
		l.cache = newResultCache(limits.CacheBytes)
	}
	return l
}

// Name implements Endpoint.
func (l *Local) Name() string { return l.name }

// Store exposes the underlying store for test setup and datagen.
func (l *Local) Store() *store.Store { return l.store }

// Epoch implements Epoched: it reports the underlying store's mutation
// epoch (always known for a local endpoint).
func (l *Local) Epoch(context.Context) (uint64, bool) {
	return l.store.Epoch(), true
}

// Stats returns a snapshot of the endpoint counters.
func (l *Local) Stats() Stats {
	l.mu.Lock()
	st := l.stats
	l.mu.Unlock()
	if l.cache != nil {
		st.CacheHits, st.CacheMisses, st.CacheEvicted,
			st.CacheCoalesced, st.CacheBytes, st.CacheEntries = l.cache.counters()
		st.CacheRawHits = st.CacheHits
	}
	return st
}

// Query implements Endpoint. It enforces admission control, the
// intermediate-row budget, and context cancellation. With a result
// cache configured (Limits.CacheBytes > 0), a repeat of a query text at
// an unchanged store epoch is served from the cache with no parse and
// no evaluation, and concurrent identical misses coalesce into a single
// evaluation. A parse error, a rejection or a timeout files nothing.
func (l *Local) Query(ctx context.Context, query string) (*sparql.Results, error) {
	l.mu.Lock()
	l.stats.Queries++
	l.mu.Unlock()

	if err := l.simulateLatency(ctx); err != nil {
		return nil, err
	}
	var res *sparql.Results
	var err error
	if l.cache != nil {
		// The epoch read before evaluation is the key's epoch. A cached
		// entry therefore always answers: "what did this query return
		// against the triple set this epoch names?" — and the cacheable
		// flag below refuses to file a result when a write landed
		// between the epoch read and the end of evaluation, so a result
		// computed against newer data is never served for an old epoch.
		epoch := l.store.Epoch()
		res, err = l.cache.getOrCompute(ctx, cacheKey{query: query, epoch: epoch},
			func() (*sparql.Results, bool, error) {
				r, err := l.eval(ctx, query)
				return r, err == nil && l.store.Epoch() == epoch, err
			})
	} else {
		res, err = l.eval(ctx, query)
	}
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.stats.Rows += int64(len(res.Rows))
	l.mu.Unlock()
	return res, nil
}

// simulateLatency models the configured network round trip; cache hits
// pay it too (a result cache saves evaluation, not the wire).
func (l *Local) simulateLatency(ctx context.Context) error {
	if l.limits.Latency <= 0 {
		return nil
	}
	select {
	case <-time.After(l.limits.Latency):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// eval parses the query, runs admission control and evaluates it — the
// work a cache hit skips entirely.
func (l *Local) eval(ctx context.Context, query string) (*sparql.Results, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, fmt.Errorf("endpoint %s: %w: %v", l.name, ErrParse, err)
	}
	if l.limits.RejectEstimateAbove > 0 {
		if est := sparql.AdmissionEstimate(l.store, q); est > l.limits.RejectEstimateAbove {
			l.mu.Lock()
			l.stats.Rejected++
			l.mu.Unlock()
			return nil, fmt.Errorf("endpoint %s: estimate %d: %w", l.name, est, ErrRejected)
		}
	}
	// Single-pattern queries are index sweeps: real endpoints answer
	// them with one ordered scan, so a row of such a query costs far
	// less than a join row. Weighting them 1/32 preserves the asymmetry
	// the paper relies on — the statistics queries Q1/Q3/Q4 are "short
	// queries that are not expected to time out" while multi-pattern
	// literal retrieval over large classes does time out.
	const sweepDiscount = 32
	cheap := len(q.Where) == 1
	calls := 0
	budget := func() error {
		calls++
		effective := calls
		if cheap {
			effective = (calls + sweepDiscount - 1) / sweepDiscount
		}
		if l.limits.MaxIntermediateRows > 0 && effective > l.limits.MaxIntermediateRows {
			return ErrTimeout
		}
		if calls%1024 == 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
		}
		return nil
	}
	res, err := sparql.Eval(l.store, q, sparql.Options{Budget: budget})
	if err != nil {
		if errors.Is(err, ErrTimeout) {
			l.mu.Lock()
			l.stats.Timeouts++
			l.mu.Unlock()
			return nil, fmt.Errorf("endpoint %s: %w", l.name, ErrTimeout)
		}
		return nil, fmt.Errorf("endpoint %s: %w", l.name, err)
	}
	return res, nil
}
