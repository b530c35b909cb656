package endpoint

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

// fastRetry keeps test wall-clock negligible while exercising the real
// retry loop.
var fastRetry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 1}

const cannedJSON = `{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"uri","value":"http://a"}}]}}`

// flakyHTTP serves cannedJSON but fails the first failN requests with
// status failCode, counting every request it sees.
func flakyHTTP(failN int64, failCode int) (*httptest.Server, *atomic.Int64) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= failN {
			http.Error(w, "injected", failCode)
			return
		}
		w.Header().Set("Content-Type", "application/sparql-results+json")
		w.Write([]byte(cannedJSON))
	}))
	return srv, &calls
}

func TestClientRetriesTransient5xx(t *testing.T) {
	srv, calls := flakyHTTP(2, http.StatusInternalServerError)
	defer srv.Close()
	res, err := NewClient(srv.URL, WithRetryPolicy(fastRetry)).Query(context.Background(), "SELECT * WHERE { ?x ?y ?z }")
	if err != nil {
		t.Fatalf("query failed despite retries: %v", err)
	}
	if len(res.Rows) != 1 || calls.Load() != 3 {
		t.Fatalf("rows=%d calls=%d, want 1 row after 3 calls", len(res.Rows), calls.Load())
	}
}

func TestClientRetries503(t *testing.T) {
	srv, calls := flakyHTTP(1, http.StatusServiceUnavailable)
	defer srv.Close()
	if _, err := NewClient(srv.URL, WithRetryPolicy(fastRetry)).Query(context.Background(), "q"); err != nil {
		t.Fatalf("query failed despite retries: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls=%d, want 2", calls.Load())
	}
}

func TestClientExhaustsAttempts(t *testing.T) {
	srv, calls := flakyHTTP(1<<30, http.StatusServiceUnavailable)
	defer srv.Close()
	_, err := NewClient(srv.URL, WithRetryPolicy(fastRetry)).Query(context.Background(), "q")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout after exhausting attempts, got %v", err)
	}
	if got := calls.Load(); got != int64(fastRetry.MaxAttempts) {
		t.Fatalf("calls=%d, want exactly MaxAttempts=%d", got, fastRetry.MaxAttempts)
	}
}

func TestClientNeverRetriesRejection(t *testing.T) {
	srv, calls := flakyHTTP(1<<30, http.StatusTooManyRequests)
	defer srv.Close()
	_, err := NewClient(srv.URL, WithRetryPolicy(fastRetry)).Query(context.Background(), "q")
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("want ErrRejected, got %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls=%d: a rejected query must not be re-sent", calls.Load())
	}
}

func TestClientNeverRetries4xx(t *testing.T) {
	srv, calls := flakyHTTP(1<<30, http.StatusBadRequest)
	defer srv.Close()
	if _, err := NewClient(srv.URL, WithRetryPolicy(fastRetry)).Query(context.Background(), "q"); err == nil {
		t.Fatal("want error on 400")
	}
	if calls.Load() != 1 {
		t.Fatalf("calls=%d: a 400 must not be re-sent", calls.Load())
	}
}

func TestClientRetriesConnectionError(t *testing.T) {
	// A server that is immediately closed: every attempt fails at the
	// transport level, and the loop must still stop at MaxAttempts.
	srv := httptest.NewServer(http.NotFoundHandler())
	u := srv.URL
	srv.Close()
	start := time.Now()
	_, err := NewClient(u, WithRetryPolicy(fastRetry)).Query(context.Background(), "q")
	if err == nil {
		t.Fatal("want transport error")
	}
	if !strings.Contains(err.Error(), "attempts") {
		t.Fatalf("error should mention exhausted attempts: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("retry loop took implausibly long")
	}
}

func TestClientPerAttemptTimeout(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			<-release // black-hole the first attempt
			return
		}
		w.Write([]byte(cannedJSON))
	}))
	defer srv.Close()
	defer close(release)
	p := fastRetry
	p.PerAttempt = 50 * time.Millisecond
	res, err := NewClient(srv.URL, WithRetryPolicy(p)).Query(context.Background(), "q")
	if err != nil {
		t.Fatalf("second attempt should have rescued the query: %v", err)
	}
	if len(res.Rows) != 1 || calls.Load() != 2 {
		t.Fatalf("rows=%d calls=%d, want the hung attempt abandoned and retried", len(res.Rows), calls.Load())
	}
}

func TestClientParentContextStopsRetries(t *testing.T) {
	srv, calls := flakyHTTP(1<<30, http.StatusInternalServerError)
	defer srv.Close()
	p := fastRetry
	p.MaxAttempts = 100
	p.BaseDelay = 20 * time.Millisecond
	p.MaxDelay = 20 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := NewClient(srv.URL, WithRetryPolicy(p)).Query(ctx, "q")
	if err == nil {
		t.Fatal("want error after context deadline")
	}
	if got := calls.Load(); got > 4 {
		t.Fatalf("calls=%d: retries kept going past the parent deadline", got)
	}
}

// TestClientAgainstFlakyEndpoint is the end-to-end pin: a real Handler
// over a Flaky-wrapped local endpoint injects a deterministic 503 every
// other query, and the retrying client must hide every one of them.
func TestClientAgainstFlakyEndpoint(t *testing.T) {
	s := store.New()
	s.MustAdd(rdf.NewTriple(rdf.NewIRI("http://x/s"), rdf.NewIRI("http://x/p"), rdf.NewLiteral("v")))
	flaky := NewFlaky(NewLocal("local", s, Limits{}), 2, 0, 1)
	srv := httptest.NewServer(Handler(flaky))
	defer srv.Close()
	client := NewClient(srv.URL, WithRetryPolicy(fastRetry))
	for i := 0; i < 10; i++ {
		res, err := client.Query(context.Background(), "SELECT ?o WHERE { <http://x/s> <http://x/p> ?o }")
		if err != nil {
			t.Fatalf("query %d failed despite retries: %v", i, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("query %d: got %d rows", i, len(res.Rows))
		}
	}
	if flaky.Failures() == 0 {
		t.Fatal("flaky endpoint injected no failures — the test pinned nothing")
	}
}

func TestBackoffBounds(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	rng := rand.New(rand.NewSource(3))
	for attempt := 1; attempt <= 20; attempt++ {
		want := p.BaseDelay << (attempt - 1)
		if want > p.MaxDelay || want <= 0 {
			want = p.MaxDelay
		}
		for i := 0; i < 50; i++ {
			d := p.backoff(attempt, rng)
			if d < want/2 || d > want {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
}
