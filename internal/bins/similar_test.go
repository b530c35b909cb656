package bins_test

import (
	"context"
	"math"
	"testing"

	"sapphire/internal/bootstrap"
	"sapphire/internal/datagen"
	"sapphire/internal/endpoint"
	"sapphire/internal/similarity"
)

// TestSearchSimilarBoundChangesNothing: the nil measure, which skips
// literals by Jaro-Winkler's upper bound, returns exactly what scoring
// every literal with an explicit Jaro-Winkler returns, over both tiers
// of an initialized cache and at every worker count.
func TestSearchSimilarBoundChangesNothing(t *testing.T) {
	d := datagen.Generate(datagen.SmallConfig())
	ep := endpoint.NewLocal("synthetic-dbpedia", d.Store, endpoint.Limits{})
	cache, err := bootstrap.Initialize(context.Background(), ep, bootstrap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every literal as typed, and with its last two letters swapped the
	// way a typo does, so that near matches exist.
	var targets []string
	for i, lex := range cache.Literals() {
		if i%5 != 0 {
			continue
		}
		targets = append(targets, lex)
		if r := []rune(lex); len(r) > 2 {
			r[len(r)-1], r[len(r)-2] = r[len(r)-2], r[len(r)-1]
			targets = append(targets, string(r))
		}
	}
	matched := 0
	for _, target := range targets {
		n := len([]rune(target))
		for _, p := range []int{1, 2, 8} {
			got := cache.Bins.SearchSimilar(target, n-2, n+3, p, 0.7, nil)
			want := cache.Bins.SearchSimilar(target, n-2, n+3, p, 0.7, similarity.JaroWinkler)
			if len(got) != len(want) {
				t.Fatalf("%q p=%d: %d matches, want %d", target, p, len(got), len(want))
			}
			for i := range got {
				if got[i].Literal != want[i].Literal || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("%q p=%d: match %d = %+v, want %+v", target, p, i, got[i], want[i])
				}
			}
			matched += len(got)
		}
	}
	if matched == 0 {
		t.Fatal("no target matched anything; the comparison is vacuous")
	}
}
