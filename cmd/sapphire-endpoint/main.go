// Command sapphire-endpoint serves the synthetic DBpedia-like dataset as
// a SPARQL HTTP endpoint, the stand-in for http://dbpedia.org/sparql in
// all experiments. Query it with:
//
//	curl -s 'http://localhost:8890/sparql' \
//	  --data-urlencode 'query=SELECT ?s WHERE { ?s a <http://dbpedia.org/ontology/Writer> . } LIMIT 5'
//
// With -data-dir the store is durable: the first start generates the
// dataset and snapshots it; later starts recover from the snapshot +
// WAL instead of regenerating, triples POSTed to /add are write-ahead
// logged under the -fsync policy, and SIGTERM/SIGINT triggers a
// graceful shutdown snapshot:
//
//	sapphire-endpoint -data-dir ./endpoint-data -fsync interval
//	curl -s http://localhost:8890/add --data-binary \
//	  '<http://x/s> <http://x/p> "new fact" .'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"sapphire/internal/datagen"
	"sapphire/internal/endpoint"
	"sapphire/internal/store"
	"sapphire/internal/store/persist"
)

func main() {
	var (
		addr    = flag.String("addr", ":8890", "listen address")
		scale   = flag.String("scale", "default", "dataset scale: small | default")
		seed    = flag.Int64("seed", 1, "dataset generator seed")
		maxRows = flag.Int("max-rows", 0, "intermediate-row budget per query (0 = unlimited); models public endpoint timeouts")
		latency = flag.Duration("latency", 0, "simulated per-query latency, e.g. 20ms")
		reject  = flag.Int("reject-above", endpoint.DefaultRejectEstimate,
			"reject queries whose exact pattern cardinality exceeds this (0 = admit everything)")
		cacheBytes = flag.Int64("cache-bytes", endpoint.DefaultCacheBytes,
			"byte budget for the query result cache, keyed by (query, store epoch) (0 = no caching)")
		dataDir = flag.String("data-dir", "",
			"durable store directory: recover on start, WAL /add writes, snapshot on shutdown (empty = in-memory only)")
		snapshotEvery = flag.Int("snapshot-every", 0,
			"take an automatic snapshot after this many WAL-logged triples (0 = only on shutdown)")
		fsync = flag.String("fsync", "always", "WAL fsync policy: always | interval | off")
	)
	flag.Parse()

	cfg := datagen.DefaultConfig()
	if *scale == "small" {
		cfg = datagen.SmallConfig()
	}
	cfg.Seed = *seed

	var (
		st *store.Store
		db *persist.DB
	)
	if *dataDir != "" {
		policy, err := persist.ParseFsyncPolicy(*fsync)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		var info persist.RecoveryInfo
		db, info, err = persist.Open(*dataDir, persist.Options{
			Fsync:         policy,
			SnapshotEvery: *snapshotEvery,
		})
		if err != nil {
			log.Fatalf("open %s: %v", *dataDir, err)
		}
		st = db.Store()
		if st.Len() == 0 {
			log.Printf("empty data dir, generating dataset ...")
			err := db.Ingest(func(s *store.Store) error {
				datagen.GenerateInto(cfg, s)
				return nil
			})
			if err != nil {
				log.Fatalf("ingest: %v", err)
			}
			log.Printf("generated and snapshotted %d triples in %v",
				st.Len(), time.Since(start).Round(time.Millisecond))
		} else {
			log.Printf("recovered %d triples from %s (generation %d, %d WAL records) in %v",
				st.Len(), *dataDir, info.Generation, info.WALRecords,
				time.Since(start).Round(time.Millisecond))
		}
	} else {
		start := time.Now()
		st = datagen.Generate(cfg).Store
		log.Printf("generated %d triples in %v", st.Len(), time.Since(start).Round(time.Millisecond))
	}

	ep := endpoint.NewLocal("synthetic-dbpedia", st, endpoint.Limits{
		MaxIntermediateRows: *maxRows,
		Latency:             *latency,
		RejectEstimateAbove: *reject,
		CacheBytes:          *cacheBytes,
	})
	// NewMux mounts the routed serving surface — /sparql, /epoch,
	// /healthz — and returns a plain ServeMux for the extra routes.
	mux := endpoint.NewMux(ep)
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		s := ep.Stats()
		epoch, _ := ep.Epoch(r.Context())
		fmt.Fprintf(w, "queries=%d timeouts=%d rejected=%d rows=%d epoch=%d\n",
			s.Queries, s.Timeouts, s.Rejected, s.Rows, epoch)
		fmt.Fprintf(w, "cache: hits=%d rawhits=%d misses=%d coalesced=%d evicted=%d bytes=%d entries=%d\n",
			s.CacheHits, s.CacheRawHits, s.CacheMisses, s.CacheCoalesced, s.CacheEvicted,
			s.CacheBytes, s.CacheEntries)
	})
	if db != nil {
		mux.Handle("/add", endpoint.AddHandler(db))
	}

	srv := &http.Server{Addr: *addr, Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
	}()

	log.Printf("SPARQL endpoint on %s/sparql", *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	if db != nil {
		log.Printf("shutting down: snapshotting %d triples ...", st.Len())
		if info, err := db.Snapshot(); err != nil {
			log.Printf("shutdown snapshot failed (WAL still covers the data): %v", err)
		} else {
			log.Printf("snapshot: epoch %d, %d triples, %d terms, %d bytes",
				info.Epoch, info.Triples, info.Terms, info.Bytes)
		}
		if err := db.Close(); err != nil {
			log.Printf("close: %v", err)
		}
	}
}
