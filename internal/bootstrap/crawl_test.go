package bootstrap

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"sapphire/internal/datagen"
	"sapphire/internal/endpoint"
	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
	"sapphire/internal/store"
)

// The benchmark corpus: datagen.DefaultConfig with every entity count
// ×4 (≈96 k triples), bulk-loaded into a fresh store from its triple
// list the way benchmark/stack.go loads it.
var (
	benchCorpusOnce    sync.Once
	benchCorpusTriples []rdf.Triple
)

func benchCorpus() *store.Store {
	benchCorpusOnce.Do(func() {
		cfg := datagen.DefaultConfig()
		cfg.People *= 4
		cfg.Cities *= 4
		cfg.Books *= 4
		cfg.Films *= 4
		cfg.Companies *= 4
		ds := datagen.GenerateInto(cfg, store.New())
		benchCorpusTriples = ds.Store.MatchSlice(rdf.Term{}, rdf.Term{}, rdf.Term{})
	})
	st := store.New()
	bl := store.NewBulkLoader(st)
	for _, tr := range benchCorpusTriples {
		bl.MustAdd(tr)
	}
	bl.Commit()
	return st
}

// benchEndpoint serves st with the benchmark's limits: admission
// control and a result cache.
func benchEndpoint(st *store.Store) *endpoint.Local {
	return endpoint.NewLocal("primary", st, endpoint.Limits{
		RejectEstimateAbove: endpoint.DefaultRejectEstimate,
		CacheBytes:          endpoint.DefaultCacheBytes,
	})
}

// recordingEndpoint keeps every query text and its answer.
type recordingEndpoint struct {
	endpoint.Endpoint
	queries []string
	results []*sparql.Results
}

func (r *recordingEndpoint) Query(ctx context.Context, q string) (*sparql.Results, error) {
	res, err := r.Endpoint.Query(ctx, q)
	r.queries = append(r.queries, q)
	r.results = append(r.results, res)
	return res, err
}

// digestRows writes the rows in their order, every column in Vars
// order, an absent binding as "∅".
func digestRows(h hash.Hash, res *sparql.Results) {
	io.WriteString(h, strings.Join(res.Vars, ","))
	for _, row := range res.Rows {
		h.Write([]byte{'\n'})
		for _, v := range res.Vars {
			if t, ok := row[v]; ok {
				io.WriteString(h, t.String())
			} else {
				io.WriteString(h, "∅")
			}
			h.Write([]byte{0})
		}
	}
	h.Write([]byte{1})
}

// TestInitializeCrawlPinned pins what the §5 crawl computes on the
// benchmark corpus: every query text it sends, in order, the ordered
// rows of Q1, Q3, Q4 and every Q8 page it issues, the saved cache byte
// for byte (its Duration zeroed), and the counts the benchmark's
// per-layer rows report. An evaluator change
// that moves any answer the crawl sees, or their order, fails here.
func TestInitializeCrawlPinned(t *testing.T) {
	ctx := context.Background()
	ep := benchEndpoint(benchCorpus())
	rec := &recordingEndpoint{Endpoint: ep}
	c, err := Initialize(ctx, rec, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.QueriesIssued != 79 || c.Stats.TreeNodes != 24_077 || c.Stats.ResidualCount != 5_141 {
		t.Errorf("queries %d, suffix-array entries %d, residual strings %d; want 79, 24077, 5141",
			c.Stats.QueriesIssued, c.Stats.TreeNodes, c.Stats.ResidualCount)
	}

	h := sha256.New()
	for _, q := range []string{QueryPredicatesByFrequency, QueryTypesByFrequency, QueryLiteralPredicates} {
		res, err := ep.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		digestRows(h, res)
	}
	pages := 0
	for i, q := range rec.queries {
		if strings.Contains(q, "COUNT(?subject)") && rec.results[i] != nil {
			io.WriteString(h, q)
			digestRows(h, rec.results[i])
			pages++
		}
	}
	if pages == 0 {
		t.Error("the crawl issued no Q8 page")
	}
	const wantRows = "2762e8addf64ea1caf4c1ccba41e35f7c1859e3e4e988a4a073859d979b1b974"
	if got := hex.EncodeToString(h.Sum(nil)); got != wantRows {
		t.Errorf("Q1/Q3/Q4/Q8 rows digest = %s, want %s", got, wantRows)
	}

	qh := sha256.New()
	for _, q := range rec.queries {
		io.WriteString(qh, q)
		qh.Write([]byte{0})
	}
	const wantQueries = "af2ebcf8e9f15630fd6640d39d5abc7f3f402c357e7d882c648ba05bfb39e363"
	if got := hex.EncodeToString(qh.Sum(nil)); got != wantQueries {
		t.Errorf("query-sequence digest = %s, want %s", got, wantQueries)
	}

	c.Stats.Duration = 0
	var saved bytes.Buffer
	if err := c.Save(&saved); err != nil {
		t.Fatal(err)
	}
	const wantCache = "d467a737fd7d1c31a40c880e960a219d241bc504caed2b99f40a2ee1398db81a"
	if sum := sha256.Sum256(saved.Bytes()); hex.EncodeToString(sum[:]) != wantCache {
		t.Errorf("Cache.Save digest = %x, want %s", sum, wantCache)
	}
}

// TestCrawlCountsQueriesSent pins the counting rule of both drivers: a
// query is counted in LiteralQueries (Q6/Q7, Q9) or SignificanceQueries
// (Q8, Q10) exactly when the endpoint receives it, whether it came back,
// timed out or was the last before the budget ran out; a page the
// budget refused is not counted.
func TestCrawlCountsQueriesSent(t *testing.T) {
	d := datagen.Generate(datagen.SmallConfig())
	type driver func(context.Context, endpoint.Endpoint, Config) (*Cache, error)
	for _, tc := range []struct {
		name     string
		init     driver
		budget   int
		timeouts int // every nth query times out; 0 for none
	}{
		{"initialize/budget", Initialize, 25, 0},
		{"initialize/timeouts", Initialize, 0, 4},
		{"initialize/budget+timeouts", Initialize, 20, 3},
		{"warehouse/budget", InitializeWarehouse, 2, 0},
		{"warehouse/timeouts", InitializeWarehouse, 0, 2},
		{"warehouse/budget+timeouts", InitializeWarehouse, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ep endpoint.Endpoint = endpoint.NewLocal("small", d.Store, endpoint.Limits{})
			if tc.timeouts > 0 {
				ep = endpoint.NewFlaky(ep, tc.timeouts, 0, 1)
			}
			rec := &recordingEndpoint{Endpoint: ep}
			cfg := DefaultConfig()
			cfg.QueryBudget = tc.budget
			c, err := tc.init(context.Background(), rec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			lit, sig := 0, 0
			for _, q := range rec.queries {
				switch {
				case strings.Contains(q, "COUNT(?subject)") || strings.Contains(q, "COUNT(?s1)"):
					sig++
				case strings.Contains(q, "OFFSET"):
					lit++
				}
			}
			s := c.Stats
			if s.QueriesIssued != len(rec.queries) || s.LiteralQueries != lit || s.SignificanceQueries != sig {
				t.Errorf("counted %d queries (literal %d, significance %d); endpoint received %d (literal %d, significance %d)",
					s.QueriesIssued, s.LiteralQueries, s.SignificanceQueries, len(rec.queries), lit, sig)
			}
			if tc.budget > 0 && !s.BudgetExhausted {
				t.Errorf("budget %d not exhausted after %d queries", tc.budget, s.QueriesIssued)
			}
		})
	}
}

// failingEndpoint fails one query text with a hard error.
type failingEndpoint struct {
	endpoint.Endpoint
	fail string
}

func (f failingEndpoint) Query(ctx context.Context, q string) (*sparql.Results, error) {
	if q == f.fail {
		return nil, errors.New("connection reset")
	}
	return f.Endpoint.Query(ctx, q)
}

// TestInitializeHardFailures: a Q1–Q4 query that fails with an error
// other than a timeout or a rejection fails Initialize. On a dataset
// without a class hierarchy that includes Q3, which once left a cache
// with no literals and a nil error.
func TestInitializeHardFailures(t *testing.T) {
	s := store.New()
	typ, name := rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://x/name")
	for i := 0; i < 30; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/e%d", i))
		s.MustAdd(rdf.NewTriple(subj, typ, rdf.NewIRI("http://x/Thing")))
		s.MustAdd(rdf.NewTriple(subj, name, rdf.NewLangLiteral(fmt.Sprintf("entity %d", i), "en")))
	}
	for _, q := range []string{QueryPredicatesByFrequency, QueryClassHierarchy, QueryTypesByFrequency, QueryLiteralPredicates} {
		rec := &recordingEndpoint{Endpoint: failingEndpoint{endpoint.NewLocal("flat", s, endpoint.Limits{}), q}}
		_, err := Initialize(context.Background(), rec, DefaultConfig())
		if !slices.Contains(rec.queries, q) {
			t.Fatalf("the crawl never sent\n%s", q)
		}
		if err == nil || !strings.Contains(err.Error(), "connection reset") {
			t.Errorf("Initialize failing\n%s\n= error %v; want the query's error", q, err)
		}
	}
}

// TestInitializeDescendsPastFailedPage: over HTTP a public endpoint
// often answers an overlong query with a 504, which the client does not
// type as a timeout. A Q6/Q7 or Q8 page that fails that way is a failed
// visit, as a timeout is: the walk descends into the subclasses and
// Initialize succeeds with their literals.
func TestInitializeDescendsPastFailedPage(t *testing.T) {
	s := store.New()
	typ := rdf.NewIRI(rdf.RDFType)
	person, agent := rdf.NewIRI("http://x/Person"), rdf.NewIRI("http://x/Agent")
	name, knows := rdf.NewIRI("http://x/name"), rdf.NewIRI("http://x/knows")
	s.MustAdd(rdf.NewTriple(person, typ, rdf.NewIRI("http://www.w3.org/2002/07/owl#Class")))
	s.MustAdd(rdf.NewTriple(person, rdf.NewIRI("http://www.w3.org/2000/01/rdf-schema#subClassOf"), agent))
	for i := 0; i < 30; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/e%d", i))
		s.MustAdd(rdf.NewTriple(subj, typ, person))
		s.MustAdd(rdf.NewTriple(subj, name, rdf.NewLangLiteral(fmt.Sprintf("entity %d", i), "en")))
		s.MustAdd(rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://x/e%d", (i+1)%30)), knows, subj))
	}
	cfg := DefaultConfig()
	page := func(class rdf.Term) []string {
		return []string{
			QueryLiteralsByClass(class, name, cfg.Language, cfg.MaxLiteralLength, cfg.PageSize, 0),
			QuerySignificantLiterals(class, name, cfg.Language, cfg.MaxLiteralLength, cfg.PageSize, 0),
		}
	}
	failed := page(agent)
	inner := endpoint.Handler(endpoint.NewLocal("remote", s, endpoint.Limits{}))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if slices.Contains(failed, r.FormValue("query")) {
			http.Error(w, "gateway timeout", http.StatusGatewayTimeout)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	rec := &recordingEndpoint{Endpoint: endpoint.NewClient(srv.URL, endpoint.WithRetryPolicy(endpoint.RetryPolicy{MaxAttempts: 1}))}
	c, err := Initialize(context.Background(), rec, cfg)
	if err != nil {
		t.Fatalf("Initialize with a 504 page: %v", err)
	}
	for _, q := range append(failed, page(person)...) {
		if !slices.Contains(rec.queries, q) {
			t.Errorf("the crawl never sent\n%s", q)
		}
	}
	if c.Stats.LiteralCount != 30 || c.Stats.SignificantCount == 0 {
		t.Errorf("cached %d literals, %d significant; want the 30 Person names, some significant",
			c.Stats.LiteralCount, c.Stats.SignificantCount)
	}
}

// TestCrawlClassMustReadBack: a class IRI the crawl writes into Q6
// must lex back as the IRI. The relative <1abc> once loaded and made
// every Q6/Q8 page a parse error, which the walk takes as a failed
// visit, so Initialize cached nothing and said nothing; now the
// document fails to load. The same document with an absolute class
// caches its one literal.
func TestCrawlClassMustReadBack(t *testing.T) {
	doc := func(class string) string {
		return "<http://x/s> <" + rdf.RDFType + "> <" + class + "> .\n" +
			"<http://x/s> <http://x/name> \"Sam\"@en .\n" +
			"<http://x/t> <http://x/knows> <http://x/s> .\n"
	}
	var pe *rdf.ParseError
	if err := store.LoadNTriples(store.New(), strings.NewReader(doc("1abc"))); !errors.As(err, &pe) {
		t.Errorf("loading a document whose class is <1abc>: %v, want a *rdf.ParseError", err)
	}
	s := store.New()
	if err := store.LoadNTriples(s, strings.NewReader(doc("http://x/C"))); err != nil {
		t.Fatal(err)
	}
	c, err := Initialize(context.Background(), endpoint.NewLocal("tiny", s, endpoint.Limits{}), DefaultConfig())
	if err != nil || c.Stats.LiteralCount != 1 {
		t.Fatalf("Initialize: %v, %+v; want 1 literal", err, c)
	}
}

// TestInitializeRejectsPageSize: a page size below 1 fails both
// drivers before any query is sent; a LIMIT 0 page is never short, so
// the page loop would re-send it until the budget or deadline ran out.
func TestInitializeRejectsPageSize(t *testing.T) {
	d := datagen.Generate(datagen.SmallConfig())
	for _, init := range []func(context.Context, endpoint.Endpoint, Config) (*Cache, error){Initialize, InitializeWarehouse} {
		for _, size := range []int{0, -1} {
			rec := &recordingEndpoint{Endpoint: endpoint.NewLocal("small", d.Store, endpoint.Limits{})}
			cfg := DefaultConfig()
			cfg.PageSize = size
			cfg.QueryBudget = 200
			if _, err := init(context.Background(), rec, cfg); err == nil || len(rec.queries) != 0 {
				t.Errorf("page size %d: error %v after %d queries; want an error before any query", size, err, len(rec.queries))
			}
		}
	}
}

// BenchmarkInitialize runs the §5 crawl on the benchmark corpus, each
// iteration against a fresh endpoint so no answer comes from an earlier
// iteration's result cache.
func BenchmarkInitialize(b *testing.B) {
	st := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Initialize(context.Background(), benchEndpoint(st), DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
