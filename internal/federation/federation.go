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
	// gen is the current cache generation, shared by every Eval that
	// starts while it is current.
	gen *generation
	// queries counts endpoint requests issued, for experiment reporting.
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
		members:     members,
		sourceCache: make(map[string][]int),
		gen:         newGeneration(""),
	}
}

// A generation is one state of the federation's caches: a term
// dictionary (ID 0 is the zero Term, the wildcard) and the pattern
// fetches memoized as ID triples against it, so scans repeated within
// and across evaluations neither re-query members nor re-intern their
// answers. The federation replaces its generation whole on
// invalidation; an Eval keeps the one it started with, so the IDs in
// its rows resolve against the dictionary that minted them (the
// store's pin-an-epoch discipline). A generation only grows.
type generation struct {
	fp string // the member-epoch fingerprint it was built against

	// mu is held only inside single calls, never while a scan calls
	// back, so ResolveID may read-lock it from inside MatchIDsPinned's
	// callback without deadlocking against a queued writer.
	mu       sync.RWMutex
	ids      map[rdf.Term]uint32
	terms    []rdf.Term
	patterns map[[3]uint32][][3]uint32
}

func newGeneration(fp string) *generation {
	return &generation{
		fp:       fp,
		ids:      map[rdf.Term]uint32{{}: 0},
		terms:    make([]rdf.Term, 1),
		patterns: make(map[[3]uint32][][3]uint32),
	}
}

// internLocked returns t's ID, assigning the next one on first sight.
// The caller holds gen.mu for writing.
func (gen *generation) internLocked(t rdf.Term) uint32 {
	if id, ok := gen.ids[t]; ok {
		return id
	}
	id := uint32(len(gen.terms))
	gen.ids[t] = id
	gen.terms = append(gen.terms, t)
	return id
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
//
//sapphire:allow testonly the federation and pum generation-swap tests clear memoization by hand to compare with epoch invalidation
func (f *Federation) ResetCaches() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gen = newGeneration(f.gen.fp)
}

// checkEpochs replaces the generation when any member's mutation epoch
// moved since it was built, and returns the current one — callers
// evaluate against it, and fetchPattern files nothing once it is
// superseded. Epoch reads happen outside the federation lock: for local
// members one atomic load, for HTTP members one `GET /epoch` probe
// (throttled by SetEpochPoll).
func (f *Federation) checkEpochs(ctx context.Context) *generation {
	f.mu.Lock()
	poll, last, cur := f.epochPoll, f.lastEpochCheck, f.gen
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
	if fp == f.gen.fp {
		return f.gen
	}
	f.gen = newGeneration(fp)
	// Unlike a manual ResetCaches, an epoch change also invalidates
	// source selection: a member that had nothing for a predicate may
	// hold it after the mutation, and the long-lived FedX source cache
	// would keep routing around it forever.
	f.sourceCache = make(map[string][]int)
	return f.gen
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
	g := &fedGraph{f: f, ctx: ctx, gen: f.checkEpochs(ctx)}
	res, err := sparql.Eval(g, q, sparql.Options{})
	if err != nil {
		return nil, err
	}
	if g.err != nil {
		return nil, g.err
	}
	return res, nil
}

// Graph returns the current generation, after one epoch check, for a
// caller that scans it directly (Algorithm 3's expansion). Its IDs stay
// valid for as long as the caller holds it. A member error fails the
// remaining scans of the read session (PinRead to release) it happened
// in; the graph's Err method reports it until the next PinRead.
func (f *Federation) Graph(ctx context.Context) sparql.IDGraph {
	return &fedGraph{f: f, ctx: ctx, gen: f.checkEpochs(ctx)}
}

// fedGraph is a sparql.IDGraph over the generation it started with.
// Member errors are recorded and surface after the scan (a scan cannot
// fail): after evaluation for an Eval, per pin for Graph's callers.
type fedGraph struct {
	f   *Federation
	ctx context.Context
	gen *generation
	err error
}

// CardinalityEstimate uses the size of the memoized pattern result when
// available and a neutral constant otherwise, so join ordering prefers
// already-fetched selective patterns.
func (g *fedGraph) CardinalityEstimate(s, p, o rdf.Term) int {
	g.gen.mu.RLock()
	si, sok := g.gen.ids[s]
	pi, pok := g.gen.ids[p]
	oi, ook := g.gen.ids[o]
	ts, cached := g.gen.patterns[[3]uint32{si, pi, oi}]
	g.gen.mu.RUnlock()
	if sok && pok && ook && cached {
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

// Lookup interns: whether a constant occurs is the members' to answer,
// not the dictionary's.
func (g *fedGraph) Lookup(t rdf.Term) (uint32, bool) {
	g.gen.mu.Lock()
	defer g.gen.mu.Unlock()
	return g.gen.internLocked(t), true
}

// ResolveID read-locks the dictionary (see generation.mu).
func (g *fedGraph) ResolveID(id uint32) rdf.Term {
	g.gen.mu.RLock()
	defer g.gen.mu.RUnlock()
	return g.gen.terms[id]
}

// PinRead pins nothing, since the graph holds its generation, which
// only grows. It opens a read session, so it clears the previous
// session's member error.
func (g *fedGraph) PinRead() (release func()) {
	g.err = nil
	return func() {}
}

// Err returns the first member error of the current read session.
func (g *fedGraph) Err() error { return g.err }

// MatchIDsPinned streams the pattern's memoized ID triples, fetching
// them from the relevant members on the generation's first scan.
func (g *fedGraph) MatchIDsPinned(s, p, o uint32, fn func(s, p, o uint32) bool) {
	if g.err != nil {
		return
	}
	triples, err := g.f.fetchPattern(g.ctx, g.gen, [3]uint32{s, p, o})
	if err != nil {
		g.err = err
		return
	}
	for _, tr := range triples {
		if !fn(tr[0], tr[1], tr[2]) {
			return
		}
	}
}

func (g *fedGraph) OrderLabels() (label func(id uint32) uint64, exact bool) { return nil, false }

// fetchPattern returns the triples matching the pattern key (IDs of
// gen) across relevant members, interned into gen and memoized there
// only while gen is current: a fetch that raced a member mutation and
// the checkEpochs that superseded gen must not plant pre-mutation data
// where epoch comparison would never evict it.
func (f *Federation) fetchPattern(ctx context.Context, gen *generation, key [3]uint32) ([][3]uint32, error) {
	gen.mu.RLock()
	ts, ok := gen.patterns[key]
	s, p, o := gen.terms[key[0]], gen.terms[key[1]], gen.terms[key[2]]
	gen.mu.RUnlock()
	if ok {
		return ts, nil
	}

	members, err := f.selectSources(ctx, gen.fp, p)
	if err != nil {
		return nil, err
	}
	var all [][3]uint32
	seen := make(map[[3]uint32]bool)
	for _, mi := range members {
		triples, err := f.fetchFromMember(ctx, mi, s, p, o)
		if err != nil {
			return nil, err
		}
		gen.mu.Lock()
		for _, tr := range triples {
			id := [3]uint32{gen.internLocked(tr.S), gen.internLocked(tr.P), gen.internLocked(tr.O)}
			if !seen[id] {
				seen[id] = true
				all = append(all, id)
			}
		}
		gen.mu.Unlock()
	}
	f.mu.Lock()
	if f.gen == gen {
		gen.mu.Lock()
		gen.patterns[key] = all
		gen.mu.Unlock()
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
	if f.gen.fp == fp {
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
	// SPARQL reads _:x in a pattern as a variable, so a member is asked
	// about one of its blank nodes with that position unbound, and only
	// the rows carrying the label are kept: a member whose labels change
	// between answers matches nothing.
	blankS, blankO := s, o
	if s.IsBlank() {
		s = rdf.Term{}
	}
	if o.IsBlank() {
		o = rdf.Term{}
	}
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
		if blankS.IsBlank() && tr.S != blankS || blankO.IsBlank() && tr.O != blankO {
			continue
		}
		out = append(out, tr)
	}
	return out, nil
}
