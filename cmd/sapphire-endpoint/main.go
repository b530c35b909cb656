// Command sapphire-endpoint serves the synthetic DBpedia-like dataset as
// a SPARQL HTTP endpoint, the stand-in for http://dbpedia.org/sparql in
// all experiments. Query it with:
//
//	curl -s 'http://localhost:8890/sparql' \
//	  --data-urlencode 'query=SELECT ?s WHERE { ?s a <http://dbpedia.org/ontology/Writer> . } LIMIT 5'
//
// GET /stats answers the endpoint's counters as JSON. With -data-dir
// the store is durable: the first start generates the dataset and
// snapshots it; later starts recover from the snapshot + WAL instead of
// regenerating, triples POSTed to /add are write-ahead logged under the
// -fsync policy, and SIGTERM/SIGINT triggers a graceful shutdown
// snapshot:
//
//	sapphire-endpoint -data-dir ./endpoint-data -fsync interval
//	curl -s http://localhost:8890/add --data-binary \
//	  '<http://x/s> <http://x/p> "new fact" .'
package main

import (
	"context"
	"flag"
	"log"
	"os/signal"
	"syscall"
	"time"

	"sapphire/internal/datagen"
	"sapphire/internal/endpoint"
	"sapphire/internal/serve"
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

	var st *store.Store
	var db *persist.DB
	if *dataDir != "" {
		var err error
		db, err = serve.Open(*dataDir, *fsync, *snapshotEvery, func(s *store.Store) error {
			datagen.GenerateInto(cfg, s)
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		st = db.Store()
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
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	log.Printf("SPARQL endpoint on %s/sparql", *addr)
	if err := serve.Run(ctx, *addr, serve.Mux(ep, db, nil), db); err != nil {
		log.Fatal(err)
	}
}
