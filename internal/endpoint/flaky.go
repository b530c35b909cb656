package endpoint

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"sapphire/internal/sparql"
)

// Flaky wraps an endpoint with injected failures, for testing the
// resilience that Sapphire's initialization and relaxation require of
// themselves: public SPARQL endpoints drop queries, rate-limit, and time
// out unpredictably, and the paper's design (pagination, hierarchy
// descent, expansion budgets) exists precisely to survive that.
//
// Failures are deterministic given the seed, so tests reproduce.
type Flaky struct {
	Inner Endpoint
	// TimeoutEvery injects ErrTimeout on every Nth query (0 disables).
	TimeoutEvery int
	// RejectEvery injects ErrRejected on every Nth query (0 disables).
	RejectEvery int
	// FailProb injects timeouts at random with this probability, driven
	// by Seed.
	FailProb float64
	Seed     int64

	mu    sync.Mutex
	n     int
	rng   *rand.Rand
	fails int
}

// NewFlaky wraps inner with deterministic failure injection.
//
//sapphire:allow testonly the resilience tests of bootstrap, federation and the root package inject endpoint failures with it
func NewFlaky(inner Endpoint, timeoutEvery int, failProb float64, seed int64) *Flaky {
	return &Flaky{Inner: inner, TimeoutEvery: timeoutEvery, FailProb: failProb, Seed: seed}
}

// Name implements Endpoint.
func (f *Flaky) Name() string { return f.Inner.Name() + " (flaky)" }

// Failures returns how many queries were failed by injection.
//
//sapphire:allow testonly internal/federation/flap_test.go and internal/bootstrap/resilience_test.go assert the injected failure count
func (f *Flaky) Failures() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fails
}

// Query implements Endpoint.
func (f *Flaky) Query(ctx context.Context, query string) (*sparql.Results, error) {
	f.mu.Lock()
	f.n++
	n := f.n
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(f.Seed))
	}
	roll := f.rng.Float64()
	f.mu.Unlock()

	if f.TimeoutEvery > 0 && n%f.TimeoutEvery == 0 {
		f.countFail()
		return nil, fmt.Errorf("flaky %s: injected: %w", f.Inner.Name(), ErrTimeout)
	}
	if f.RejectEvery > 0 && n%f.RejectEvery == 0 {
		f.countFail()
		return nil, fmt.Errorf("flaky %s: injected: %w", f.Inner.Name(), ErrRejected)
	}
	if f.FailProb > 0 && roll < f.FailProb {
		f.countFail()
		return nil, fmt.Errorf("flaky %s: injected: %w", f.Inner.Name(), ErrTimeout)
	}
	return f.Inner.Query(ctx, query)
}

func (f *Flaky) countFail() {
	f.mu.Lock()
	f.fails++
	f.mu.Unlock()
}
