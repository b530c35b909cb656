// Package sapphire is the public API of the Sapphire reproduction: an
// interactive assistant that helps users write syntactically and
// semantically correct SPARQL queries over RDF endpoints they have no
// prior knowledge of (El-Roby, Ammar, Aboulnaga, Lin: "Sapphire:
// Querying RDF Data Made Simple", VLDB 2016 / arXiv:1805.11728).
//
// A Client registers one or more SPARQL endpoints. Registration runs the
// paper's initialization (Section 5): predicates and filtered literals
// are cached, the most significant literals go into a suffix tree, the
// rest into length bins. The Predictive User Model then serves:
//
//   - Complete: QCM auto-completions while the user types (Section 6.1);
//   - Query: federated execution across the registered endpoints;
//   - Suggest: QSM alternatives — similar predicates/literals and
//     Steiner-tree structure relaxation — with prefetched answers
//     (Section 6.2).
//
// Basic use:
//
//	client := sapphire.New(sapphire.Defaults())
//	ep := sapphire.NewMemoryEndpoint("books", triples)
//	if err := client.RegisterEndpoint(ctx, ep); err != nil { ... }
//	comps := client.Complete("Kerou")
//	res, sugs, err := client.Run(ctx, `SELECT ?b WHERE { ... }`)
package sapphire

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"sapphire/internal/bootstrap"
	"sapphire/internal/endpoint"
	"sapphire/internal/federation"
	"sapphire/internal/lexicon"
	"sapphire/internal/pum"
	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
	"sapphire/internal/store"
)

// Re-exported types so downstream users work with one import.
type (
	// Completion is a QCM auto-complete suggestion.
	Completion = pum.Completion
	// Suggestion is a QSM query suggestion with prefetched answers.
	Suggestion = pum.Suggestion
	// Results is a SPARQL result set.
	Results = sparql.Results
	// Endpoint is a SPARQL query service.
	Endpoint = endpoint.Endpoint
	// Limits configures a simulated endpoint's resource constraints.
	Limits = endpoint.Limits
	// InitStats reports what endpoint initialization did.
	InitStats = bootstrap.Stats
	// Triple is an RDF statement.
	Triple = rdf.Triple
	// Term is an RDF term.
	Term = rdf.Term
)

// Suggestion kinds, re-exported.
const (
	AltPredicate = pum.AltPredicate
	AltLiteral   = pum.AltLiteral
	Relaxation   = pum.Relaxation
)

// Config tunes the client. Zero values take the paper's defaults.
type Config struct {
	// PUM holds the predictive-model parameters (k, γ, θ, α, β, P, ...).
	PUM pum.Config
	// Bootstrap holds the initialization parameters (length cap,
	// language, page size, budgets).
	Bootstrap bootstrap.Config
	// Lexicon overrides the built-in verbalization lexicon.
	Lexicon *lexicon.Lexicon
	// FedEpochPoll throttles the federation's epoch-driven cache
	// invalidation: 0 checks member epochs on every query (the
	// default), > 0 checks at most once per interval, < 0 disables
	// automatic invalidation entirely.
	FedEpochPoll time.Duration
}

// Defaults returns the configuration used throughout the paper.
func Defaults() Config {
	return Config{PUM: pum.DefaultConfig(), Bootstrap: bootstrap.DefaultConfig()}
}

// Client is the Sapphire server core: registered endpoints, their merged
// cache, and the PUM.
type Client struct {
	cfg Config

	mu        sync.RWMutex
	endpoints []endpoint.Endpoint
	caches    []*bootstrap.Cache
	fed       *federation.Federation
	model     *pum.PUM
}

// New returns a client with no registered endpoints.
func New(cfg Config) *Client {
	if cfg.PUM.K == 0 {
		cfg.PUM = pum.DefaultConfig()
	}
	if cfg.Bootstrap.MaxLiteralLength == 0 {
		cfg.Bootstrap = bootstrap.DefaultConfig()
	}
	return &Client{cfg: cfg}
}

// RegisterEndpoint initializes the endpoint (Section 5) and adds it to
// the federation. Initialization may take a while for large endpoints;
// the paper reports 17 hours for DBpedia.
func (c *Client) RegisterEndpoint(ctx context.Context, ep endpoint.Endpoint) error {
	cache, err := bootstrap.Initialize(ctx, ep, c.cfg.Bootstrap)
	if err != nil {
		return fmt.Errorf("sapphire: initializing %s: %w", ep.Name(), err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.endpoints = append(c.endpoints, ep)
	c.caches = append(c.caches, cache)
	c.rebuildLocked()
	return nil
}

// RegisterHTTP registers a remote SPARQL endpoint by URL.
func (c *Client) RegisterHTTP(ctx context.Context, url string) error {
	return c.RegisterEndpoint(ctx, endpoint.NewClient(url))
}

// RegisterEndpointWithCache registers an endpoint using a previously
// saved initialization cache (see SaveEndpointCache), skipping the
// crawl. The paper's 17-hour DBpedia initialization happens once; this
// is how the result is reused across server restarts.
func (c *Client) RegisterEndpointWithCache(ep endpoint.Endpoint, cached io.Reader) error {
	cache, err := bootstrap.Load(cached)
	if err != nil {
		return fmt.Errorf("sapphire: loading cache for %s: %w", ep.Name(), err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.endpoints = append(c.endpoints, ep)
	c.caches = append(c.caches, cache)
	c.rebuildLocked()
	return nil
}

// SaveEndpointCache writes the named endpoint's initialization cache so
// a later RegisterEndpointWithCache can skip re-crawling.
func (c *Client) SaveEndpointCache(name string, w io.Writer) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, ep := range c.endpoints {
		if ep.Name() == name {
			return c.caches[i].Save(w)
		}
	}
	return fmt.Errorf("sapphire: no endpoint named %q", name)
}

func (c *Client) rebuildLocked() {
	c.fed = federation.New(c.endpoints...)
	c.fed.SetEpochPoll(c.cfg.FedEpochPoll)
	merged := bootstrap.MergeCaches(c.caches...)
	c.model = pum.New(merged, c.fed, c.cfg.Lexicon, c.cfg.PUM)
}

// pumOrNil returns the current model.
func (c *Client) pumOrNil() *pum.PUM {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.model
}

// Endpoints returns the names of the registered endpoints.
func (c *Client) Endpoints() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, len(c.endpoints))
	for i, ep := range c.endpoints {
		out[i] = ep.Name()
	}
	return out
}

// Stats returns the merged initialization statistics.
func (c *Client) Stats() InitStats {
	if m := c.pumOrNil(); m != nil {
		return m.Cache().Stats
	}
	return InitStats{}
}

// ServingStats reports live query-serving counters: the federation's
// request count plus, per registered endpoint, its mutation epoch and
// serving stats (including result-cache hit/miss/evict/coalesced
// counters) where the endpoint exposes them.
type ServingStats struct {
	// FederationQueries is the number of requests the federation has
	// shipped to members (probes and pattern fetches).
	FederationQueries int `json:"federationQueries"`
	// Endpoints lists per-member serving state in registration order.
	Endpoints []EndpointServingStats `json:"endpoints"`
}

// EndpointServingStats is one endpoint's entry in ServingStats.
type EndpointServingStats struct {
	Name string `json:"name"`
	// Epoch is the endpoint's mutation epoch; EpochKnown is false when
	// the endpoint cannot report one (then Epoch is meaningless).
	Epoch      uint64 `json:"epoch"`
	EpochKnown bool   `json:"epochKnown"`
	// Stats carries the endpoint's counters when it exposes them
	// (local/simulated endpoints do; plain HTTP clients do not).
	Stats *endpoint.Stats `json:"stats,omitempty"`
}

// ServingStats collects live serving counters across the federation and
// every registered endpoint. Epoch probes for remote endpoints use ctx
// and run concurrently, so one hung member delays the stats surface by
// one probe timeout, not the sum over members.
func (c *Client) ServingStats(ctx context.Context) ServingStats {
	c.mu.RLock()
	fed := c.fed
	eps := append([]endpoint.Endpoint(nil), c.endpoints...)
	c.mu.RUnlock()
	var out ServingStats
	if fed != nil {
		out.FederationQueries = fed.QueriesIssued()
	}
	out.Endpoints = make([]EndpointServingStats, len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep endpoint.Endpoint) {
			defer wg.Done()
			out.Endpoints[i] = EndpointServingStatsOf(ctx, ep)
		}(i, ep)
	}
	wg.Wait()
	return out
}

// EndpointServingStatsOf is one endpoint's serving record: its name,
// its epoch where it reports one (probed with ctx) and its counters
// where it keeps them.
func EndpointServingStatsOf(ctx context.Context, ep endpoint.Endpoint) EndpointServingStats {
	es := EndpointServingStats{Name: ep.Name()}
	if e, ok := ep.(endpoint.Epoched); ok {
		es.Epoch, es.EpochKnown = e.Epoch(ctx)
	}
	if s, ok := ep.(endpoint.StatsReporter); ok {
		st := s.Stats()
		es.Stats = &st
	}
	return es
}

// Complete returns up to k auto-complete suggestions for the term being
// typed (QCM, Figure 5). It returns nil before any endpoint registers.
func (c *Client) Complete(term string) []Completion {
	m := c.pumOrNil()
	if m == nil {
		return nil
	}
	return m.Complete(term)
}

// Name makes the client an endpoint.Endpoint serving its federation.
func (c *Client) Name() string { return "sapphire-federation" }

// Query executes a SPARQL query across the registered endpoints.
func (c *Client) Query(ctx context.Context, query string) (*Results, error) {
	c.mu.RLock()
	fed := c.fed
	c.mu.RUnlock()
	if fed == nil {
		return nil, fmt.Errorf("sapphire: no endpoints registered")
	}
	return fed.Query(ctx, query)
}

// Suggest returns QSM suggestions for a query: alternative terms and
// relaxed structures, each with prefetched answers (Section 6.2).
func (c *Client) Suggest(ctx context.Context, query string) ([]Suggestion, error) {
	m := c.pumOrNil()
	if m == nil {
		return nil, fmt.Errorf("sapphire: no endpoints registered")
	}
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	return m.Suggest(ctx, q)
}

// Run executes the query and computes suggestions in one step, the way
// the Sapphire UI does when the user clicks "Run": answers come back
// together with ways to improve the query.
func (c *Client) Run(ctx context.Context, query string) (*Results, []Suggestion, error) {
	m := c.pumOrNil()
	if m == nil {
		return nil, nil, fmt.Errorf("sapphire: no endpoints registered")
	}
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, nil, err
	}
	res, err := m.Execute(ctx, q)
	if err != nil {
		return nil, nil, err
	}
	sugs, err := m.Suggest(ctx, q)
	if err != nil {
		return res, nil, err
	}
	return res, sugs, nil
}

// NewMemoryEndpoint builds an in-process endpoint over the given triples
// with no resource limits — the "warehousing architecture" of the paper.
// Loading goes through the store's staged bulk-load path, so building
// endpoints over large datasets stays linear in the number of triples.
func NewMemoryEndpoint(name string, triples []Triple) (*endpoint.Local, error) {
	st := store.New()
	if err := st.AddAll(triples); err != nil {
		return nil, err
	}
	return endpoint.NewLocal(name, st, Limits{}), nil
}

// NewEndpointFromNTriples builds an in-process endpoint from an
// N-Triples document, applying the given limits (use zero Limits for
// none). The document is streamed through the store's bulk loader, so
// it is never materialized as a whole.
func NewEndpointFromNTriples(name string, r io.Reader, limits Limits) (*endpoint.Local, error) {
	st := store.New()
	if err := store.LoadNTriples(st, r); err != nil {
		return nil, err
	}
	return endpoint.NewLocal(name, st, limits), nil
}

// NewEndpointFromTurtle builds an in-process endpoint from a Turtle
// document (the serialization most public RDF dumps use).
func NewEndpointFromTurtle(name string, r io.Reader, limits Limits) (*endpoint.Local, error) {
	triples, err := rdf.ParseTurtle(r)
	if err != nil {
		return nil, err
	}
	st := store.New()
	if err := st.AddAll(triples); err != nil {
		return nil, err
	}
	return endpoint.NewLocal(name, st, limits), nil
}
