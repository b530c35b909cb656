package bootstrap

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"io"
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
// benchmark corpus: the ordered rows of Q1, Q3, Q4 and every Q8 page
// it issues, the saved cache byte for byte (its Duration zeroed), and
// the counts the benchmark's per-layer rows report. An evaluator change
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
