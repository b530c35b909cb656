// Package federation implements a FedX-style federated query processor
// over SPARQL endpoints (Schwarte et al., ISWC 2011), the substrate the
// Sapphire server uses to execute user queries and to prefetch suggested
// alternatives across all registered endpoints (Section 3).
//
// Like FedX it performs source selection — probing which endpoints can
// contribute to each triple pattern and caching the outcome — and then
// evaluates joins at the federator, shipping bound patterns to members.
// Batching via SPARQL 1.1 VALUES is simplified to memoized per-pattern
// requests, which preserves the architecture (endpoints see only
// single-pattern queries) at our simulation scale.
package federation

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"sapphire/internal/endpoint"
	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
)

// Federation is a federated query processor over member endpoints.
//
// Cache invalidation is epoch-driven: members that implement
// endpoint.Epoched (local endpoints natively, HTTP clients via the
// `GET /epoch` probe) report a mutation epoch, and the federation
// snapshots all member epochs into a fingerprint whenever it checks
// freshness. A fingerprint change means some member's data moved, and
// both the pattern memoization and the source-selection cache are
// dropped — so a member that just gained its first triple for a
// predicate is re-discovered, exactly what manual ResetCaches calls
// used to be for. Members that cannot report an epoch never trigger
// automatic invalidation; they still need ResetCaches.
type Federation struct {
	members []endpoint.Endpoint

	mu sync.Mutex
	// sourceCache maps predicate IRI → indexes of members that hold at
	// least one triple with that predicate (FedX source selection).
	sourceCache map[string][]int
	// patternCache memoizes pattern fetches within this federation's
	// lifetime so repeated Match calls during a join do not re-issue
	// identical endpoint queries.
	patternCache map[string][]rdf.Triple
	// queries counts endpoint requests issued, for experiment reporting
	// and for the Steiner expansion budget.
	queries int

	// epochPoll throttles freshness checks: 0 checks member epochs on
	// every Eval (free for local members, one tiny HTTP probe per
	// remote member), > 0 checks at most once per interval, < 0 never
	// checks (manual ResetCaches only).
	epochPoll time.Duration
	// lastEpochCheck is when the fingerprint was last verified.
	lastEpochCheck time.Time
	// epochChecking single-flights fingerprint probes: concurrent Evals
	// skip the check instead of racing, which both bounds probe traffic
	// and guarantees fingerprints install in the order they were
	// computed (a stale install would re-open the fetchPattern guard).
	epochChecking bool
	// epochFP is the member-epoch fingerprint the caches were built
	// against.
	epochFP string
	// lastEpochParts remembers each member's last successfully probed
	// epoch so one transient probe failure does not flap the
	// fingerprint (and drop the caches twice) for a member whose data
	// never changed.
	lastEpochParts []string
}

// New returns a federation over the given endpoints, checking member
// epochs on every query (SetEpochPoll throttles or disables that).
func New(members ...endpoint.Endpoint) *Federation {
	return &Federation{
		members:      members,
		sourceCache:  make(map[string][]int),
		patternCache: make(map[string][]rdf.Triple),
	}
}

// SetEpochPoll sets how often the federation re-checks member epochs:
// 0 on every query (the default), d > 0 at most once per d (bounds
// probe traffic to remote members at the price of a staleness window
// up to d), d < 0 never (invalidation is then manual via ResetCaches).
func (f *Federation) SetEpochPoll(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.epochPoll = d
}

// Members returns the registered endpoints.
func (f *Federation) Members() []endpoint.Endpoint { return f.members }

// QueriesIssued returns the number of endpoint requests sent so far.
func (f *Federation) QueriesIssued() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.queries
}

// ResetCaches clears the pattern memoization (source selection survives,
// as in FedX where the source cache is long-lived). With epoch-reporting
// members this is rarely needed — invalidation happens automatically
// when a member's epoch moves — but it remains the escape hatch for
// members that cannot report epochs.
func (f *Federation) ResetCaches() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.patternCache = make(map[string][]rdf.Triple)
}

// checkEpochs drops the caches when any member's mutation epoch moved
// since they were built, and returns the fingerprint the caches are
// valid for — callers hold on to it and refuse to file fetch results
// once it goes stale (see fetchPattern). Epoch reads happen outside
// the federation lock: for local members they are one atomic load, for
// HTTP members one `GET /epoch` probe (throttled by SetEpochPoll).
func (f *Federation) checkEpochs(ctx context.Context) string {
	f.mu.Lock()
	poll, last, cur := f.epochPoll, f.lastEpochCheck, f.epochFP
	if f.epochChecking || poll < 0 || (poll > 0 && time.Since(last) < poll) {
		f.mu.Unlock()
		return cur
	}
	f.epochChecking = true
	f.mu.Unlock()

	fp := f.epochFingerprint(ctx)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.epochChecking = false
	f.lastEpochCheck = time.Now()
	if fp == f.epochFP {
		return f.epochFP
	}
	f.epochFP = fp
	f.patternCache = make(map[string][]rdf.Triple)
	// Unlike a manual ResetCaches, an epoch change also invalidates
	// source selection: a member that had nothing for a predicate may
	// hold it after the mutation, and the long-lived FedX source cache
	// would keep routing around it forever.
	f.sourceCache = make(map[string][]int)
	return fp
}

// epochFingerprint concatenates the members' current epochs, probing
// them concurrently (a serial walk would pay sum-of-RTTs on every
// query for remote members; concurrent it is max-of-RTTs). A member
// without a known epoch contributes its last successfully probed value
// when it has one (a transient probe failure must not flap the
// fingerprint) and the constant "?" otherwise, so never-known members
// compare equal across checks and never trigger automatic
// invalidation. Callers single-flight this via epochChecking, so
// lastEpochParts sees no concurrent writers.
func (f *Federation) epochFingerprint(ctx context.Context) string {
	parts := make([]string, len(f.members))
	var wg sync.WaitGroup
	for i, m := range f.members {
		ep, ok := m.(endpoint.Epoched)
		if !ok {
			continue // parts[i] stays "", resolved to "?" below
		}
		wg.Add(1)
		go func(i int, ep endpoint.Epoched) {
			defer wg.Done()
			if e, known := ep.Epoch(ctx); known {
				parts[i] = strconv.FormatUint(e, 10)
			}
		}(i, ep)
	}
	wg.Wait()
	f.mu.Lock()
	if f.lastEpochParts == nil {
		f.lastEpochParts = make([]string, len(f.members))
	}
	for i, p := range parts {
		if p != "" {
			f.lastEpochParts[i] = p
			continue
		}
		if prev := f.lastEpochParts[i]; prev != "" {
			parts[i] = prev
		} else {
			parts[i] = "?"
		}
	}
	f.mu.Unlock()
	return strings.Join(parts, ";")
}

// Query parses and executes a SPARQL query across the federation.
func (f *Federation) Query(ctx context.Context, query string) (*sparql.Results, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	return f.Eval(ctx, q)
}

// Eval executes a parsed query across the federation.
func (f *Federation) Eval(ctx context.Context, q *sparql.Query) (*sparql.Results, error) {
	g := &fedGraph{f: f, ctx: ctx, fp: f.checkEpochs(ctx)}
	res, err := sparql.Eval(sparql.AdaptTerms(g), q, sparql.Options{})
	if err != nil {
		return nil, err
	}
	if g.err != nil {
		return nil, g.err
	}
	return res, nil
}

// fedGraph adapts the federation to sparql.Graph. Errors from member
// endpoints are recorded and surface after evaluation (the Graph
// interface itself cannot fail).
type fedGraph struct {
	f   *Federation
	ctx context.Context
	// fp is the member-epoch fingerprint this evaluation started at;
	// fetches carry it so results computed against pre-mutation data
	// are never filed into caches that were invalidated mid-flight.
	fp  string
	err error
}

// Match implements sparql.Graph by fetching the pattern from all
// relevant members.
func (g *fedGraph) Match(s, p, o rdf.Term, fn func(rdf.Triple) bool) {
	if g.err != nil {
		return
	}
	triples, err := g.f.fetchPattern(g.ctx, g.fp, s, p, o)
	if err != nil {
		g.err = err
		return
	}
	for _, tr := range triples {
		if !fn(tr) {
			return
		}
	}
}

// CardinalityEstimate implements sparql.Graph. It uses the size of the
// memoized pattern result when available and a neutral constant
// otherwise, so join ordering prefers already-fetched selective patterns.
func (g *fedGraph) CardinalityEstimate(s, p, o rdf.Term) int {
	g.f.mu.Lock()
	defer g.f.mu.Unlock()
	if ts, ok := g.f.patternCache[patternKey(s, p, o)]; ok {
		return len(ts)
	}
	// Unfetched: guess by boundness — more constants, more selective.
	est := 1 << 20
	for _, t := range []rdf.Term{s, p, o} {
		if !t.IsZero() {
			est >>= 7
		}
	}
	return est
}

// fetchPattern returns all triples matching the pattern across relevant
// members, memoized. fp is the epoch fingerprint the caller's
// evaluation started at: the result is filed into the pattern cache
// only if the caches still belong to that fingerprint, so a fetch that
// raced a member mutation (and a concurrent checkEpochs that already
// cleared the caches) cannot re-plant pre-mutation data that epoch
// comparison would then never invalidate.
func (f *Federation) fetchPattern(ctx context.Context, fp string, s, p, o rdf.Term) ([]rdf.Triple, error) {
	key := patternKey(s, p, o)
	f.mu.Lock()
	if ts, ok := f.patternCache[key]; ok {
		f.mu.Unlock()
		return ts, nil
	}
	f.mu.Unlock()

	members, err := f.selectSources(ctx, fp, p)
	if err != nil {
		return nil, err
	}
	var all []rdf.Triple
	seen := make(map[rdf.Triple]bool)
	for _, mi := range members {
		triples, err := f.fetchFromMember(ctx, mi, s, p, o)
		if err != nil {
			return nil, err
		}
		for _, tr := range triples {
			if !seen[tr] {
				seen[tr] = true
				all = append(all, tr)
			}
		}
	}
	f.mu.Lock()
	if f.epochFP == fp {
		f.patternCache[key] = all
	}
	f.mu.Unlock()
	return all, nil
}

// selectSources returns the member indexes relevant for a pattern with
// predicate p. Bound predicates use the cached ASK-style probe; variable
// predicates go to every member. Probe outcomes are filed under the
// same stale-fingerprint guard as pattern fetches.
func (f *Federation) selectSources(ctx context.Context, fp string, p rdf.Term) ([]int, error) {
	if p.IsZero() || !p.IsIRI() {
		all := make([]int, len(f.members))
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	f.mu.Lock()
	if cached, ok := f.sourceCache[p.Value]; ok {
		f.mu.Unlock()
		return cached, nil
	}
	f.mu.Unlock()

	var relevant []int
	probe := fmt.Sprintf("SELECT ?s WHERE { ?s %s ?o . } LIMIT 1", p)
	for i, m := range f.members {
		f.countQuery()
		res, err := m.Query(ctx, probe)
		if err != nil {
			return nil, fmt.Errorf("federation: source probe on %s: %w", m.Name(), err)
		}
		if len(res.Rows) > 0 {
			relevant = append(relevant, i)
		}
	}
	f.mu.Lock()
	if f.epochFP == fp {
		f.sourceCache[p.Value] = relevant
	}
	f.mu.Unlock()
	return relevant, nil
}

func (f *Federation) countQuery() {
	f.mu.Lock()
	f.queries++
	f.mu.Unlock()
}

// fetchFromMember ships a single-pattern query to one member and converts
// the rows back to triples.
func (f *Federation) fetchFromMember(ctx context.Context, mi int, s, p, o rdf.Term) ([]rdf.Triple, error) {
	m := f.members[mi]
	var sb strings.Builder
	sb.WriteString("SELECT")
	writeNode := func(t rdf.Term, v string) string {
		if t.IsZero() {
			return "?" + v
		}
		return t.String()
	}
	sn, pn, on := writeNode(s, "s"), writeNode(p, "p"), writeNode(o, "o")
	anyVar := false
	for _, part := range []struct {
		t rdf.Term
		v string
	}{{s, "s"}, {p, "p"}, {o, "o"}} {
		if part.t.IsZero() {
			sb.WriteString(" ?" + part.v)
			anyVar = true
		}
	}
	if !anyVar {
		// Fully bound: ask for the subject to detect existence.
		q := fmt.Sprintf("SELECT ?x WHERE { ?x %s %s . FILTER (?x = %s) } LIMIT 1", pn, on, sn)
		f.countQuery()
		res, err := m.Query(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("federation: %s: %w", m.Name(), err)
		}
		if len(res.Rows) > 0 {
			return []rdf.Triple{{S: s, P: p, O: o}}, nil
		}
		return nil, nil
	}
	fmt.Fprintf(&sb, " WHERE { %s %s %s . }", sn, pn, on)
	f.countQuery()
	res, err := m.Query(ctx, sb.String())
	if err != nil {
		return nil, fmt.Errorf("federation: %s: %w", m.Name(), err)
	}
	out := make([]rdf.Triple, 0, len(res.Rows))
	for _, row := range res.Rows {
		tr := rdf.Triple{S: s, P: p, O: o}
		if s.IsZero() {
			tr.S = row["s"]
		}
		if p.IsZero() {
			tr.P = row["p"]
		}
		if o.IsZero() {
			tr.O = row["o"]
		}
		out = append(out, tr)
	}
	return out, nil
}

func patternKey(s, p, o rdf.Term) string {
	return s.String() + "\x00" + p.String() + "\x00" + o.String()
}
