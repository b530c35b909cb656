// Command sapphire-loadgen replays a deterministic traffic scenario
// against a Sapphire serving surface and reports per-phase latency
// percentiles and throughput (internal/scenario).
//
// By default it builds the full serving world in-process — a durable
// primary endpoint behind the NewMux routes, a flapping federation
// member, real loopback HTTP — and replays the built-in smoke scenario:
//
//	sapphire-loadgen -scenario smoke -out BENCH_serving.json
//
// Against an already-running sapphire-endpoint, point -url at its base
// (the flapping federation member is still spun up locally, so the
// federation phase runs regardless):
//
//	sapphire-loadgen -scenario serving -url http://localhost:8890
//
// Scenarios are versioned JSON specs; -scenario accepts a built-in name
// (-list shows them) or a path to a spec file. The same spec and seed
// replay the identical op sequence — -oplog writes it for diffing two
// runs. The -out file is the benchgate SLO input:
//
//	sapphire-benchgate -slo -baseline bench_serving_baseline.json \
//	  -current BENCH_serving.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sapphire/internal/datagen"
	"sapphire/internal/endpoint"
	"sapphire/internal/federation"
	"sapphire/internal/scenario"
)

func main() {
	var (
		name = flag.String("scenario", "smoke",
			"built-in scenario name (see -list) or path to a scenario JSON spec")
		list    = flag.Bool("list", false, "list built-in scenarios and exit")
		baseURL = flag.String("url", "",
			"base URL of a running serving surface (routes /sparql, /add); empty runs the full world in-process")
		seed    = flag.Int64("seed", 0, "override the spec's seed (0 = keep)")
		clients = flag.Int("clients", 0, "override the spec's client count (0 = keep)")
		dataset = flag.String("dataset", "", "override the spec's dataset scale: small | default (in-process only)")
		out     = flag.String("out", "", "write the benchgate SLO JSON (BENCH_serving.json) here")
		oplog   = flag.String("oplog", "", "write the replayable op log here")
		repeat  = flag.Int("repeat", 1,
			"replay the scenario this many times and report the best per row (min latency, max throughput) — the gate statistic")
	)
	flag.Parse()

	if *list {
		for _, n := range scenario.Names() {
			s := scenario.Builtin(n)
			fmt.Printf("%-10s %d phases, dataset %s, seed %d\n", n, len(s.Phases), s.Dataset, s.Seed)
		}
		return
	}

	spec := scenario.Builtin(*name)
	if spec == nil {
		var err error
		spec, err = scenario.Load(*name)
		if err != nil {
			log.Fatalf("scenario %q is not built in and did not load as a file: %v", *name, err)
		}
	}
	if *seed != 0 {
		spec.Seed = *seed
	}
	if *clients != 0 {
		spec.Clients = *clients
	}
	if *dataset != "" {
		spec.Dataset = *dataset
	}
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var target scenario.Target
	if *baseURL == "" {
		start := time.Now()
		world, err := scenario.NewWorld(spec.Dataset, spec.Seed)
		if err != nil {
			log.Fatal(err)
		}
		defer world.Close()
		log.Printf("in-process world up in %v (primary %s, flaky member %s)",
			time.Since(start).Round(time.Millisecond), world.PrimaryURL, world.FlakyURL)
		target = world.Target
	} else {
		var cleanup func()
		target, cleanup = remoteTarget(strings.TrimRight(*baseURL, "/"), spec.Seed)
		defer cleanup()
	}

	var logW io.Writer
	if *oplog != "" {
		f, err := os.Create(*oplog)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		logW = f
	}

	if *repeat < 1 {
		*repeat = 1
	}
	var reports []*scenario.Report
	for i := 0; i < *repeat; i++ {
		// The op stream is identical each repeat (that's the
		// determinism contract); only the first writes the log.
		opts := scenario.RunOptions{}
		if i == 0 {
			opts.OpLog = logW
		}
		rep, err := scenario.Run(ctx, spec, target, opts)
		if err != nil {
			log.Fatal(err)
		}
		reports = append(reports, rep)
	}
	report := scenario.MergeBest(reports...)
	fmt.Print(report.Summary())
	if *out != "" {
		if err := report.WriteBenchJSON(*out); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *out)
	}
}

// remoteTarget points the scenario at a running serving surface. The
// flapping federation member has to be local — flakiness is injected,
// not something we ask of a production server — so the federation spans
// the remote primary plus an in-process flaky member.
func remoteTarget(baseURL string, seed int64) (scenario.Target, func()) {
	retry := endpoint.RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		Seed:        seed,
	}
	primary := endpoint.NewClient(baseURL+"/sparql",
		endpoint.WithRetryPolicy(retry), endpoint.WithUserAgent("sapphire-loadgen/1"))

	memberCfg := datagen.SmallConfig()
	memberCfg.Seed = seed + 1
	memberEP := endpoint.NewLocal("flaky-member", datagen.Generate(memberCfg).Store, endpoint.DefaultLimits())
	flakySrv := httptest.NewServer(endpoint.NewMux(
		endpoint.NewFlaky(memberEP, scenario.FlakyTimeoutEvery, 0, seed)))
	flakyClient := endpoint.NewClient(flakySrv.URL+"/sparql",
		endpoint.WithRetryPolicy(retry), endpoint.WithUserAgent("sapphire-loadgen/1"))

	fed := federation.New(primary, flakyClient)
	fed.SetEpochPoll(100 * time.Millisecond)

	return scenario.Target{
		Query:      primary,
		AddURL:     baseURL + "/add",
		HTTP:       &http.Client{Timeout: 30 * time.Second},
		Federation: fed,
	}, flakySrv.Close
}
