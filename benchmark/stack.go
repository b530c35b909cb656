package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sapphire"
	"sapphire/internal/bootstrap"
	"sapphire/internal/datagen"
	"sapphire/internal/endpoint"
	"sapphire/internal/rdf"
	"sapphire/internal/store"
	"sapphire/internal/store/persist"
	"sapphire/internal/webapi"
)

// datasetScale multiplies datagen.DefaultConfig: 4× is ≈96 k triples,
// ≈7 k cached literals, 2 000 of them in the suffix tree.
const datasetScale = 4

// defaultSnapshotEvery is the automatic checkpoint cadence of the
// durable store on the workloads that never log enough to reach it.
const defaultSnapshotEvery = 4096

// corpus is the dataset every workload runs on. It is a fixed function
// of the scale, not of -seed: the seed picks the requests, the data is
// the same on every run so heap, disk and set-up numbers compare.
type corpus struct {
	triples []rdf.Triple
}

func genCorpus(scale int) *corpus {
	cfg := datagen.DefaultConfig()
	if scale <= 0 {
		cfg = datagen.SmallConfig()
		scale = 1
	}
	cfg.People *= scale
	cfg.Cities *= scale
	cfg.Books *= scale
	cfg.Films *= scale
	cfg.Companies *= scale
	// One shard: a wildcard read of a sharded store starts a background
	// rank-table build that would keep this throwaway store alive into
	// the first heap reading.
	ds := datagen.GenerateInto(cfg, store.NewSharded(1))
	return &corpus{triples: ds.Store.MatchSlice(rdf.Term{}, rdf.Term{}, rdf.Term{})}
}

// setupTimes is the per-segment breakdown of one set-up.
type setupTimes struct {
	ingest, snapshot, recover, initialize, cacheRoundtrip time.Duration
}

// stack is the serving deployment under test: a durable store reopened
// from its own snapshot, a cached local endpoint over it, a Sapphire
// client initialized against that endpoint, and both HTTP surfaces
// (endpoint mux + /add, webapi) behind one loopback server.
type stack struct {
	dir    string
	db     *persist.DB
	ep     *endpoint.Local
	client *sapphire.Client
	// savedCache is the initialization cache as Cache.Save wrote it;
	// loadCache gives op generation and the traced ladder their own
	// copy without a second live cache inflating the heap reading.
	savedCache []byte
	mux        *http.ServeMux
	srv        *httptest.Server
	times      setupTimes
	// heapBytes is HeapAlloc growth from before the set-up to the
	// moment the server is ready (before any request), both after a
	// forced GC.
	heapBytes uint64
}

// persistOptions is the durable store's configuration. A workload that
// writes checkpoints once per replay of its list, on the replay's last
// write: at a cadence that does not divide the rounds, some rounds carry
// a checkpoint and some do not, and which ones the reported round is
// drawn from is chance.
func persistOptions(writesPerRound int) persist.Options {
	every := defaultSnapshotEvery
	if writesPerRound > 0 {
		every = writesPerRound
	}
	return persist.Options{Fsync: persist.FsyncInterval, SnapshotEvery: every}
}

// heapAlloc reads the live heap. Two collections, because a sync.Pool
// keeps what it held for one more cycle and the store's merge scratch
// pool can pin a whole torn-down store that long.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// newStack builds the deployment in dir (which must not exist yet) the
// way an operator would bring a node up and then restart it: bulk
// ingest + snapshot, clean close, recovery through persist.Open,
// endpoint initialization (the paper's Section 5 crawl), and a
// save/load round trip of the initialization cache.
func newStack(dir string, c *corpus, opts persist.Options) (*stack, error) {
	s := &stack{dir: dir}
	heap0 := heapAlloc()

	db, _, err := persist.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	err = db.Ingest(func(st *store.Store) error {
		bl := store.NewBulkLoader(st)
		for _, tr := range c.triples {
			bl.MustAdd(tr)
		}
		bl.Commit()
		s.times.ingest = time.Since(t0)
		return nil
	})
	s.times.snapshot = time.Since(t0) - s.times.ingest
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("ingest: %w", err)
	}
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("close after ingest: %w", err)
	}

	t0 = time.Now()
	db, info, err := persist.Open(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	s.times.recover = time.Since(t0)
	s.db = db
	if info.Triples != len(c.triples) {
		s.close()
		return nil, fmt.Errorf("reopen recovered %d triples, ingested %d", info.Triples, len(c.triples))
	}

	s.ep = endpoint.NewLocal("primary", db.Store(), endpoint.Limits{
		RejectEstimateAbove: endpoint.DefaultRejectEstimate,
		CacheBytes:          endpoint.DefaultCacheBytes,
	})
	ctx := context.Background()
	t0 = time.Now()
	cache, err := bootstrap.Initialize(ctx, s.ep, bootstrap.DefaultConfig())
	if err != nil {
		s.close()
		return nil, fmt.Errorf("initialize: %w", err)
	}
	s.times.initialize = time.Since(t0)

	t0 = time.Now()
	var saved bytes.Buffer
	if err := cache.Save(&saved); err != nil {
		s.close()
		return nil, fmt.Errorf("cache save: %w", err)
	}
	s.savedCache = saved.Bytes()
	s.client = sapphire.New(sapphire.Defaults())
	if err := s.client.RegisterEndpointWithCache(s.ep, bytes.NewReader(s.savedCache)); err != nil {
		s.close()
		return nil, fmt.Errorf("cache load: %w", err)
	}
	s.times.cacheRoundtrip = time.Since(t0)

	s.mux = endpoint.NewMux(s.ep)
	s.mux.Handle("/add", endpoint.AddHandler(db))
	api := webapi.Handler(s.client)
	for _, route := range []string{"/complete", "/run"} {
		s.mux.Handle(route, api)
	}
	s.srv = httptest.NewServer(s.mux)
	s.heapBytes = heapAlloc() - heap0
	return s, nil
}

func (s *stack) loadCache() (*bootstrap.Cache, error) {
	return bootstrap.Load(bytes.NewReader(s.savedCache))
}

// close stops the server and closes the store; the data directory is
// left in place for the caller to measure or reopen.
func (s *stack) close() error {
	if s.srv != nil {
		s.srv.Close()
		s.srv = nil
	}
	if s.db != nil {
		err := s.db.Close()
		s.db = nil
		return err
	}
	return nil
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// workRoot is where data directories and trace files go: inside the
// checkout the benchmark was started from, never in the system temp
// directory.
const workRoot = ".bench_build"

func newWorkDir() (string, error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(workRoot, "data-")
}
