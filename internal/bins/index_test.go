package bins

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// runes mixes ASCII with two-, three- and four-byte UTF-8 so that
// literals share trigrams and patterns can start or end inside a rune.
var runes = []rune("aabbcdeKn ü日🙂é")

// randomSubset picks each literal with probability 1/3, so a tree tier
// drawn from a literal set overlaps it.
func randomSubset(rng *rand.Rand, lits []string) []string {
	var out []string
	for _, l := range lits {
		if rng.Intn(3) == 0 {
			out = append(out, l)
		}
	}
	return out
}

// splitTiers splits fuzzed newline-separated literals into New's
// arguments: every literal is residual, and literal i is also tree when
// bit i%64 of treeMask is set, so the tree tier wins it.
func splitTiers(lits string, treeMask uint64) (residual, tree []string) {
	residual = strings.Split(lits, "\n")
	for i, l := range residual {
		if treeMask>>(i%64)&1 == 1 {
			tree = append(tree, l)
		}
	}
	return residual, tree
}

func randomLiteral(rng *rand.Rand) string {
	r := make([]rune, 1+rng.Intn(12))
	for i := range r {
		r[i] = runes[rng.Intn(len(runes))]
	}
	return string(r)
}

// TestSearchSubstringIndexMatchesScan: the trigram index answers exactly
// what Algorithm 1's scan answers — same literals, same order — for
// random literal sets with duplicates, multi-byte runes and a random
// tree tier, patterns
// that are substrings (cut at any byte, so across rune boundaries),
// patterns with absent trigrams, 1–2-byte patterns, every kind of
// window including empty ones, and several limits.
func TestSearchSubstringIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	matched := 0
	for set := 0; set < 20; set++ {
		lits := make([]string, 200)
		for i := range lits {
			if i > 0 && rng.Intn(5) == 0 {
				lits[i] = lits[rng.Intn(i)] // duplicate
			} else {
				lits[i] = randomLiteral(rng)
			}
		}
		b := New(lits, randomSubset(rng, lits))
		var patterns []string
		for i := 0; i < 100; i++ {
			l := lits[rng.Intn(len(lits))]
			from := rng.Intn(len(l))
			patterns = append(patterns, l[from:from+1+rng.Intn(len(l)-from)])
			patterns = append(patterns, randomLiteral(rng))
		}
		patterns = append(patterns, "zzz", "a", "ab", "\xbc", "日"[:2])
		for _, pat := range patterns {
			lo := rng.Intn(14) - 2
			windows := [][2]int{{lo, lo + rng.Intn(12)}, {0, 1 << 10}, {lo, lo - 1}}
			for _, w := range windows {
				for _, limit := range []int{0, 1, 3, 10} {
					got := b.SearchSubstring(pat, w[0], w[1], 2, limit)
					want := b.ScanSubstring(pat, w[0], w[1], 2, limit)
					if !slices.Equal(got, want) {
						t.Fatalf("set %d pattern %q window %v limit %d:\nindex %q\nscan  %q", set, pat, w, limit, got, want)
					}
					matched += len(got)
				}
			}
		}
	}
	if matched == 0 {
		t.Fatal("nothing matched; the comparison is vacuous")
	}
}

// FuzzSearchSubstring: for any literal set, tree subset, pattern, window
// and limit the index answers what the scan answers, neither returns a
// tree literal, and neither panics.
func FuzzSearchSubstring(f *testing.F) {
	f.Add("Kennedy\nJohn Kennedy\nKent\nKennedys", uint64(0b10), "Kenn", int8(0), int8(20), int8(3))
	f.Add("ü日本語\n日本\nabc\nabc", uint64(0), "本", int8(1), int8(4), int8(0))
	f.Add("abc\nab\nbcd", uint64(0b101), "ab", int8(2), int8(2), int8(1))
	f.Add("x\xffyz\n\xff\xfe\xfd", uint64(1), "\xffy", int8(-3), int8(9), int8(-1))
	f.Fuzz(func(t *testing.T, lits string, treeMask uint64, pattern string, lo, hi, limit int8) {
		b := New(splitTiers(lits, treeMask))
		got := b.SearchSubstring(pattern, int(lo), int(hi), 3, int(limit))
		want := b.ScanSubstring(pattern, int(lo), int(hi), 3, int(limit))
		if !slices.Equal(got, want) {
			t.Fatalf("pattern %q window [%d,%d] limit %d: index %q, scan %q", pattern, lo, hi, limit, got, want)
		}
		for _, l := range got {
			if b.InTree(l) {
				t.Fatalf("pattern %q: returned tree literal %q", pattern, l)
			}
		}
	})
}
