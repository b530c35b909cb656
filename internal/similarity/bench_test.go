package similarity

import (
	"math/rand"
	"testing"
)

var scoreSink float64

// BenchmarkJaroWinkler measures the QSM's similarity primitive, applied
// once per candidate literal during alternative search.
func BenchmarkJaroWinkler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		JaroWinkler("Jack Kerouac", "Jack Kerouacs")
	}
}

// BenchmarkJaroWinklerScan measures the QSM's literal scan: one target
// against a fixed, seeded set of 1 000 dissimilar 10–19-byte
// candidates, one pair per op, with and without the byte-count bound
// bins.SearchSimilar puts in front. Unlike BenchmarkJaroWinkler's
// near-identical pair, where the nested loop finds every match at the
// first window position, most characters here match nothing, so the
// kernel's cost over a whole window shows.
func BenchmarkJaroWinklerScan(b *testing.B) {
	const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ "
	rng := rand.New(rand.NewSource(1))
	cands := make([]string, 1000)
	for i := range cands {
		c := make([]byte, 10+rng.Intn(10))
		for j := range c {
			c[j] = letters[rng.Intn(len(letters))]
		}
		cands[i] = string(c)
	}
	const target, theta = "Jack Kerouac", 0.7
	b.Run("bound", func(b *testing.B) {
		jb := NewJaroWinklerBound(target)
		for i := 0; i < b.N; i++ {
			if c := cands[i%len(cands)]; jb.Max(c) >= theta {
				scoreSink = JaroWinkler(target, c)
			}
		}
	})
	b.Run("nobound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scoreSink = JaroWinkler(target, cands[i%len(cands)])
		}
	})
}

func BenchmarkLevenshtein(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Levenshtein("Jack Kerouac", "Jack Kerouacs")
	}
}

func BenchmarkJaccardTokens(b *testing.B) {
	for i := 0; i < b.N; i++ {
		JaccardTokens("the viking press", "viking press publishing")
	}
}
