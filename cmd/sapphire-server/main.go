// Command sapphire-server runs the Sapphire assistant as a JSON HTTP
// service over one or more SPARQL endpoints — the "Sapphire Server" box
// of Figure 1. Endpoints are initialized at startup (or loaded from a
// saved cache); the API then serves the interactive loop:
//
//	GET  /complete?term=Kerou        → QCM auto-completions
//	POST /query    (body: SPARQL)    → federated execution
//	POST /suggest  (body: SPARQL)    → QSM suggestions with answer counts
//	POST /run      (body: SPARQL)    → answers + suggestions in one call
//	GET  /stats                      → initialization and serving statistics
//
// /sparql, /epoch and /healthz serve the same federation. With -data-dir
// a durable store joins it as a member, POST /add writes to that store
// as one WAL-logged batch, and SIGTERM/SIGINT snapshots it on exit.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sapphire"
	"sapphire/internal/endpoint"
	"sapphire/internal/serve"
	"sapphire/internal/store/persist"
)

func main() {
	var endpoints, cachedEndpoints []string
	addr := flag.String("addr", ":8080", "listen address")
	initTimeout := flag.Duration("init-timeout", 15*time.Minute, "per-endpoint initialization deadline")
	epochPoll := flag.Duration("fed-epoch-poll", 0,
		"how often to re-check member epochs for cache invalidation (0 = every query, negative = never)")
	dataDir := flag.String("data-dir", "",
		"durable store directory to serve as an in-process federation member (populate it with sapphire-init -data-dir); snapshot on shutdown")
	snapshotEvery := flag.Int("snapshot-every", 0,
		"take an automatic snapshot of the -data-dir store after this many WAL-logged triples (0 = only on shutdown)")
	fsync := flag.String("fsync", "always", "WAL fsync policy for -data-dir: always | interval | off")
	flag.Func("endpoint", "SPARQL endpoint URL to register (repeatable)",
		func(v string) error { endpoints = append(endpoints, v); return nil })
	flag.Func("cached-endpoint", "URL=cachefile pair registering an endpoint from a saved cache (repeatable)",
		func(v string) error { cachedEndpoints = append(cachedEndpoints, v); return nil })
	flag.Parse()
	if len(endpoints)+len(cachedEndpoints) == 0 && *dataDir == "" {
		log.Fatal("at least one -endpoint, -cached-endpoint, or -data-dir is required")
	}

	cfg := sapphire.Defaults()
	cfg.FedEpochPoll = *epochPoll
	client := sapphire.New(cfg)

	var db *persist.DB
	if *dataDir != "" {
		var err error
		if db, err = serve.Open(*dataDir, *fsync, *snapshotEvery, nil); err != nil {
			log.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *initTimeout)
		err = client.RegisterEndpoint(ctx, endpoint.NewLocal(*dataDir, db.Store(), endpoint.Limits{}))
		cancel()
		if err != nil {
			log.Fatalf("register %s: %v", *dataDir, err)
		}
		log.Printf("registered durable store %s", *dataDir)
	}
	for _, url := range endpoints {
		ctx, cancel := context.WithTimeout(context.Background(), *initTimeout)
		log.Printf("registering %s (full initialization) ...", url)
		if err := client.RegisterHTTP(ctx, url); err != nil {
			cancel()
			log.Fatalf("register %s: %v", url, err)
		}
		cancel()
		log.Printf("registered %s", url)
	}
	for _, pair := range cachedEndpoints {
		url, file, ok := strings.Cut(pair, "=")
		if !ok {
			log.Fatalf("-cached-endpoint wants URL=cachefile, got %q", pair)
		}
		f, err := os.Open(file)
		if err != nil {
			log.Fatalf("open cache %s: %v", file, err)
		}
		err = client.RegisterEndpointWithCache(endpoint.NewClient(url), f)
		f.Close()
		if err != nil {
			log.Fatalf("register cached %s: %v", url, err)
		}
		log.Printf("registered %s from cache %s", url, file)
	}
	st := client.Stats()
	log.Printf("cache ready: %d predicates, %d literals (%d significant)",
		st.PredicateCount, st.LiteralCount, st.SignificantCount)

	// The client is the served endpoint: /sparql runs the federation,
	// and /epoch answers 404 (code "unsupported").
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	log.Printf("Sapphire server on %s", *addr)
	if err := serve.Run(ctx, *addr, serve.Mux(client, db, client), db); err != nil {
		log.Fatal(err)
	}
}
