package federation

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"sapphire/internal/datagen"
	"sapphire/internal/endpoint"
	"sapphire/internal/rdf"
)

// TestFederationRidesOutFlappingMember serves two members over loopback
// HTTP, one behind a Flaky wrapper that times out every 4th query, and
// runs a mix of single-pattern class queries. The clients' retry policy
// must absorb every injected timeout: no query may fail, and every
// answer must equal the one the same federation gives over a member
// that never flaps. The queries run from one client: the injection
// counts queries across all callers, so concurrent callers could line
// one query's every attempt up with the cadence.
func TestFederationRidesOutFlappingMember(t *testing.T) {
	const seed = 42
	primaryCfg := datagen.SmallConfig()
	primaryCfg.Seed = seed
	memberCfg := datagen.SmallConfig()
	memberCfg.Seed = seed + 1

	primary := httptest.NewServer(endpoint.NewMux(
		endpoint.NewLocal("primary", datagen.Generate(primaryCfg).Store, endpoint.DefaultLimits())))
	defer primary.Close()
	member := endpoint.NewLocal("member", datagen.Generate(memberCfg).Store, endpoint.DefaultLimits())
	steady := httptest.NewServer(endpoint.NewMux(member))
	defer steady.Close()
	flaky := endpoint.NewFlaky(member, 4, 0, seed)
	flapping := httptest.NewServer(endpoint.NewMux(flaky))
	defer flapping.Close()

	// Loopback latencies: a fast backoff keeps the test short while the
	// retry path still runs for every injected timeout.
	retry := endpoint.WithRetryPolicy(endpoint.RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		Seed:        seed,
	})
	fed := New(endpoint.NewClient(primary.URL+"/sparql", retry),
		endpoint.NewClient(flapping.URL+"/sparql", retry))
	ref := New(endpoint.NewClient(primary.URL+"/sparql"),
		endpoint.NewClient(steady.URL+"/sparql"))

	classes := []string{"Person", "City", "Book", "Film", "Company",
		"Writer", "Scientist", "Actor", "Musician", "Politician"}
	rng := rand.New(rand.NewSource(seed))
	queries := make([]string, 30)
	for i := range queries {
		queries[i] = fmt.Sprintf("SELECT ?s WHERE { ?s a <%s%s> . } LIMIT 10",
			rdf.NSDBO, classes[rng.Intn(len(classes))])
	}

	ctx := context.Background()
	want := make([][]string, len(queries))
	for i, q := range queries {
		res, err := ref.Query(ctx, q)
		if err != nil || len(res.Rows) == 0 {
			t.Fatalf("reference %q: %v, %v", q, res, err)
		}
		want[i] = res.Sorted()
	}

	for i, q := range queries {
		res, err := fed.Query(ctx, q)
		if err != nil {
			t.Errorf("query %d through the flapping member: %v", i, err)
			continue
		}
		if got := res.Sorted(); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("query %d: got %v, want %v", i, got, want[i])
		}
	}
	if flaky.Failures() == 0 {
		t.Fatal("the flapping member injected no failures; the test exercised no retry")
	}
}
