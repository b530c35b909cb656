// Command sapphire-server runs the Sapphire assistant as a JSON HTTP
// service over one or more SPARQL endpoints — the "Sapphire Server" box
// of Figure 1. Endpoints are initialized at startup (or loaded from a
// saved cache); the API then serves the interactive loop:
//
//	GET  /complete?term=Kerou        → QCM auto-completions
//	POST /query    (body: SPARQL)    → federated execution
//	POST /suggest  (body: SPARQL)    → QSM suggestions with answer counts
//	POST /run      (body: SPARQL)    → answers + suggestions in one call
//	GET  /stats                      → initialization statistics
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sapphire"
	"sapphire/internal/endpoint"
	"sapphire/internal/sparql"
	"sapphire/internal/store"
	"sapphire/internal/store/persist"
	"sapphire/internal/webapi"
)

// fedEndpoint adapts the Sapphire client's federated execution to the
// endpoint.Endpoint shape NewMux serves.
type fedEndpoint struct{ client *sapphire.Client }

func (f fedEndpoint) Name() string { return "sapphire-federation" }
func (f fedEndpoint) Query(ctx context.Context, query string) (*sparql.Results, error) {
	return f.client.Query(ctx, query)
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var endpoints, cachedEndpoints multiFlag
	addr := flag.String("addr", ":8080", "listen address")
	initTimeout := flag.Duration("init-timeout", 15*time.Minute, "per-endpoint initialization deadline")
	epochPoll := flag.Duration("fed-epoch-poll", 0,
		"how often to re-check member epochs for cache invalidation (0 = every query, negative = never)")
	shards := flag.Int("shards", store.DefaultShards(),
		"shard count for any in-process store built by this server (warehouses, local endpoints); 1 = unsharded")
	dataDir := flag.String("data-dir", "",
		"durable store directory to serve as an in-process federation member (populate it with sapphire-init -data-dir); snapshot on shutdown")
	snapshotEvery := flag.Int("snapshot-every", 0,
		"take an automatic snapshot of the -data-dir store after this many WAL-logged triples (0 = only on shutdown)")
	fsync := flag.String("fsync", "always", "WAL fsync policy for -data-dir: always | interval | off")
	flag.Var(&endpoints, "endpoint", "SPARQL endpoint URL to register (repeatable)")
	flag.Var(&cachedEndpoints, "cached-endpoint", "URL=cachefile pair registering an endpoint from a saved cache (repeatable)")
	flag.Parse()
	store.SetDefaultShards(*shards)
	if len(endpoints)+len(cachedEndpoints) == 0 && *dataDir == "" {
		log.Fatal("at least one -endpoint, -cached-endpoint, or -data-dir is required")
	}

	cfg := sapphire.Defaults()
	cfg.FedEpochPoll = *epochPoll
	client := sapphire.New(cfg)

	var db *persist.DB
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
			Shards:        *shards,
		})
		if err != nil {
			log.Fatalf("open %s: %v", *dataDir, err)
		}
		if db.Store().Len() == 0 {
			log.Fatalf("data dir %s holds no triples; populate it first (sapphire-init -data dump.nt -data-dir %s)", *dataDir, *dataDir)
		}
		log.Printf("recovered %d triples from %s (generation %d) in %v",
			db.Store().Len(), *dataDir, info.Generation, time.Since(start).Round(time.Millisecond))
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

	// The SPARQL-protocol surface (/sparql, /epoch, /healthz) rides
	// alongside the JSON web API: queries POSTed to /sparql execute
	// through the same federation as /query, so protocol-speaking tools
	// (curl, SPARQL clients) can drive the server without the JSON
	// wrapper. The federation spans remote members, so /epoch answers
	// 404 (code "unsupported") — the fedEndpoint is not Epoched.
	mux := endpoint.NewMux(fedEndpoint{client})
	mux.Handle("/", webapi.Handler(client))
	srv := &http.Server{Addr: *addr, Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
	}()
	log.Printf("Sapphire server on %s", *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	if db != nil {
		if _, err := db.Snapshot(); err != nil {
			log.Printf("shutdown snapshot failed (WAL still covers the data): %v", err)
		}
		if err := db.Close(); err != nil {
			log.Printf("close: %v", err)
		}
	}
}
