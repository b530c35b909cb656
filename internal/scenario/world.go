package scenario

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"sapphire/internal/datagen"
	"sapphire/internal/endpoint"
	"sapphire/internal/federation"
	"sapphire/internal/store"
	"sapphire/internal/store/persist"
)

// World is an in-process serving deployment for a scenario run: a
// durable primary endpoint behind the full NewMux route surface (plus
// /add), a second member behind a Flaky wrapper injecting timeouts, and
// a federation over both — real HTTP servers on loopback, so the run
// exercises the same wire paths as a deployed sapphire-endpoint.
type World struct {
	// Target is ready to pass to Run.
	Target Target
	// PrimaryURL is the primary server's base URL (routes: /sparql,
	// /epoch, /healthz, /add).
	PrimaryURL string
	// FlakyURL is the flapping member's query URL.
	FlakyURL string

	dir     string
	db      *persist.DB
	primary *httptest.Server
	flaky   *httptest.Server
}

// FlakyTimeoutEvery is the injected failure cadence of the world's
// flapping federation member: every Nth member query times out, which
// the endpoint client's retry/backoff must ride out.
const FlakyTimeoutEvery = 4

// NewWorld builds the deployment for a dataset scale ("small" or
// "default") and seed. Callers must Close it.
func NewWorld(dataset string, seed int64) (*World, error) {
	cfg := datagen.DefaultConfig()
	if dataset == "small" {
		cfg = datagen.SmallConfig()
	}
	cfg.Seed = seed

	dir, err := os.MkdirTemp("", "sapphire-scenario-*")
	if err != nil {
		return nil, err
	}
	w := &World{dir: dir}
	// FsyncOff: the scenario measures serving latency, not disk flush
	// cost; the WAL write path (and its commit markers) still runs.
	db, _, err := persist.Open(dir, persist.Options{Fsync: persist.FsyncOff})
	if err != nil {
		w.Close()
		return nil, err
	}
	w.db = db
	err = db.Ingest(func(s *store.Store) error {
		datagen.GenerateInto(cfg, s)
		return nil
	})
	if err != nil {
		w.Close()
		return nil, fmt.Errorf("scenario world: ingest: %w", err)
	}

	primaryEP := endpoint.NewLocal("primary", db.Store(), endpoint.Limits{
		RejectEstimateAbove: endpoint.DefaultRejectEstimate,
		CacheBytes:          endpoint.DefaultCacheBytes,
	})
	mux := endpoint.NewMux(primaryEP)
	mux.Handle("/add", endpoint.AddHandler(db))
	w.primary = httptest.NewServer(mux)
	w.PrimaryURL = w.primary.URL

	// The flapping member: a small independent store behind Flaky, so
	// federation queries hit injected timeouts at a fixed cadence.
	memberCfg := datagen.SmallConfig()
	memberCfg.Seed = seed + 1
	memberEP := endpoint.NewLocal("flaky-member", datagen.Generate(memberCfg).Store, endpoint.DefaultLimits())
	w.flaky = httptest.NewServer(endpoint.NewMux(endpoint.NewFlaky(memberEP, FlakyTimeoutEvery, 0, seed)))
	w.FlakyURL = w.flaky.URL + "/sparql"

	// Fast backoff: loopback latencies, and the flaky member's injected
	// timeouts are the thing under test — waiting full production
	// backoffs would just stretch the phase wall-clock.
	retry := endpoint.RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		Seed:        seed,
	}
	primaryClient := endpoint.NewClient(w.primary.URL+"/sparql",
		endpoint.WithRetryPolicy(retry), endpoint.WithUserAgent("sapphire-loadgen/1"))
	flakyClient := endpoint.NewClient(w.FlakyURL,
		endpoint.WithRetryPolicy(retry), endpoint.WithUserAgent("sapphire-loadgen/1"))

	fed := federation.New(primaryClient, flakyClient)
	// Throttle epoch probes: the mixed phase churns the primary's epoch
	// constantly; probing every Eval would double federation traffic.
	fed.SetEpochPoll(100 * time.Millisecond)

	w.Target = Target{
		Query:      primaryClient,
		AddURL:     w.primary.URL + "/add",
		HTTP:       &http.Client{Timeout: 30 * time.Second},
		Federation: fed,
	}
	return w, nil
}

// Close tears the world down and removes its data directory.
func (w *World) Close() {
	if w.primary != nil {
		w.primary.Close()
	}
	if w.flaky != nil {
		w.flaky.Close()
	}
	if w.db != nil {
		w.db.Close()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
