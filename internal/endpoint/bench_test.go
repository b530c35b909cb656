package endpoint

import (
	"context"
	"testing"
)

// benchQuery is the repeated two-hop join the cache benchmarks share: a
// class sweep joined with literal retrieval, the paper's canonical
// "literal retrieval over a large class" shape.
const benchQuery = `SELECT ?s ?n WHERE { ?s a <http://x/Person> . ?s <http://x/name> ?n . }`

// BenchmarkCachedQueryParallel hammers the hit path from all cores —
// the "N users repeat the same query" serving shape the cache exists
// for. Contention on the LRU mutex is the number to watch here.
func BenchmarkCachedQueryParallel(b *testing.B) {
	ep := NewLocal("bench", testStore(b, 2000), Limits{CacheBytes: 64 << 20})
	ctx := context.Background()
	if _, err := ep.Query(ctx, benchQuery); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := ep.Query(ctx, benchQuery); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
