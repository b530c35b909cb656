// Command sapphire-init runs Sapphire's endpoint initialization (Section
// 5) against a SPARQL endpoint URL and reports what was cached:
//
//	sapphire-init -endpoint http://localhost:8890/sparql
//
// With -data it instead bulk-loads a local N-Triples dump into an
// in-process warehouse endpoint (staged bulk load, one index build for
// the whole dump) and initializes that with the warehouse queries:
//
//	sapphire-init -data dump.nt -save dump.cache
//
// Adding -data-dir makes the warehouse durable: the first run ingests
// the dump and snapshots it there, and later runs (with or without
// -data) recover from the snapshot instead of re-parsing N-Triples —
// the restart is several times faster:
//
//	sapphire-init -data dump.nt -data-dir ./wh -save dump.cache
//	sapphire-init -data-dir ./wh -save dump.cache   # later, no re-parse
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"sapphire"
	"sapphire/internal/bootstrap"
	"sapphire/internal/endpoint"
	"sapphire/internal/serve"
	"sapphire/internal/store"
)

func main() {
	var (
		url       = flag.String("endpoint", "", "SPARQL endpoint URL (this or -data required)")
		data      = flag.String("data", "", "local N-Triples or Turtle file to bulk-load as a warehouse endpoint instead of querying a URL")
		lang      = flag.String("lang", "en", "literal language to cache")
		maxLen    = flag.Int("max-literal-length", 80, "literal length cap")
		pageSize  = flag.Int("page-size", 500, "LIMIT for paginated retrieval")
		budget    = flag.Int("query-budget", 0, "max queries to issue (0 = unlimited)")
		treeCap   = flag.Int("tree-capacity", 2000, "significant literals to index in the suffix tree")
		timeout   = flag.Duration("timeout", 10*time.Minute, "overall initialization deadline")
		warehouse = flag.Bool("warehouse", false, "use the warehousing-architecture queries Q9/Q10 (no timeout gymnastics)")
		saveTo    = flag.String("save", "", "write the cache to this file for later reuse")
		dataDir   = flag.String("data-dir", "", "durable warehouse directory: ingest -data into it once, recover from it on later runs")
		fsync     = flag.String("fsync", "always", "WAL fsync policy for -data-dir: always | interval | off")
	)
	flag.Parse()
	if *url == "" && *data == "" && *dataDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *url != "" && (*data != "" || *dataDir != "") {
		log.Fatal("-endpoint and -data/-data-dir are mutually exclusive: initialize a URL or a local dump, not both")
	}
	cfg := bootstrap.Config{
		MaxLiteralLength:   *maxLen,
		Language:           *lang,
		PageSize:           *pageSize,
		QueryBudget:        *budget,
		SuffixTreeCapacity: *treeCap,
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// A local warehouse has no timeouts to dodge; it takes the
	// straight-line warehouse queries Q9/Q10.
	var ep endpoint.Endpoint
	initFn := bootstrap.Initialize
	if *warehouse || *url == "" {
		initFn = bootstrap.InitializeWarehouse
	}
	switch {
	case *dataDir != "":
		var seed func(*store.Store) error
		if *data != "" {
			seed = func(s *store.Store) error {
				f, err := os.Open(*data)
				if err == nil {
					defer f.Close()
					err = store.LoadNTriples(s, f)
				}
				return err
			}
		}
		db, err := serve.Open(*dataDir, *fsync, 0, seed)
		if err != nil {
			log.Fatal(err)
		}
		defer db.Close()
		ep = endpoint.NewLocal(*dataDir, db.Store(), endpoint.Limits{})
	case *data != "":
		f, err := os.Open(*data)
		if err != nil {
			log.Fatalf("open data: %v", err)
		}
		loadStart := time.Now()
		local, err := sapphire.NewEndpointFromNTriples(*data, f, sapphire.Limits{})
		f.Close()
		if err != nil {
			log.Fatalf("bulk load failed: %v", err)
		}
		log.Printf("bulk-loaded %d triples in %v", local.Store().Len(),
			time.Since(loadStart).Round(time.Millisecond))
		ep = local
	default:
		ep = endpoint.NewClient(*url)
	}
	log.Printf("initializing %s ...", ep.Name())
	cache, err := initFn(ctx, ep, cfg)
	if err != nil {
		log.Fatalf("initialization failed: %v", err)
	}
	if *saveTo != "" {
		if err := cache.SaveFile(*saveTo); err != nil {
			log.Fatalf("save: %v", err)
		}
		log.Printf("cache written to %s", *saveTo)
	}
	s := cache.Stats
	fmt.Printf("endpoint:            %s\n", cache.Endpoint)
	fmt.Printf("queries issued:      %d (literal %d, significance %d)\n",
		s.QueriesIssued, s.LiteralQueries, s.SignificanceQueries)
	fmt.Printf("timeouts survived:   %d\n", s.Timeouts)
	fmt.Printf("predicates cached:   %d\n", s.PredicateCount)
	fmt.Printf("literals cached:     %d (significant %d, residual %d in %d bins)\n",
		s.LiteralCount, s.SignificantCount, s.ResidualCount, s.BinCount)
	fmt.Printf("suffix array:        %d entries, %d KiB\n", s.TreeNodes, s.TreeBytes/1024)
	fmt.Printf("used RDFS hierarchy: %v\n", s.UsedHierarchy)
	fmt.Printf("budget exhausted:    %v\n", s.BudgetExhausted)
	fmt.Printf("duration:            %v\n", s.Duration.Round(time.Millisecond))
}
