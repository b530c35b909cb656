package suffixtree

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// oracleSearch defines the order Search returns, by brute force: sort
// every suffix of the separator-joined text rune by rune and take the
// first limit distinct strings a suffix starting with pattern lies in.
func oracleSearch(strs []string, pattern string, limit int) []Match {
	if pattern == "" || strings.ContainsAny(pattern, "\x00\x01") {
		return nil
	}
	var kept []string
	var text []rune
	var owner []int // index into kept of each rune of text, -1 for the marks
	seen := make(map[string]bool)
	for _, s := range strs {
		if s == "" || strings.ContainsAny(s, "\x00\x01") || seen[s] {
			continue
		}
		seen[s] = true
		for _, r := range s {
			text = append(text, r)
			owner = append(owner, len(kept))
		}
		text = append(text, '\x00')
		owner = append(owner, -1)
		kept = append(kept, s)
	}
	text = append(text, '\x01')
	owner = append(owner, -1)
	starts := make([]int, len(text))
	for i := range starts {
		starts[i] = i
	}
	sort.Slice(starts, func(a, b int) bool {
		return slices.Compare(text[starts[a]:], text[starts[b]:]) < 0
	})
	p := []rune(pattern)
	var out []Match
	emitted := make(map[int]bool)
	for _, st := range starts {
		if limit > 0 && len(out) >= limit {
			break
		}
		if !slices.Equal(text[st:min(st+len(p), len(text))], p) || emitted[owner[st]] {
			continue
		}
		emitted[owner[st]] = true
		out = append(out, Match{Value: kept[owner[st]], Index: owner[st]})
	}
	return out
}

// randomStrings draws a string set over a small alphabet of 1-, 2- and
// 3-byte runes, with repeats, strings that end in an earlier string (so
// equal suffixes tie and the text after the separator decides) and
// strings holding a NUL, which New skips.
func randomStrings(rng *rand.Rand) []string {
	alphabet := []rune("abéü中文")
	word := func(n int) string {
		r := make([]rune, n)
		for i := range r {
			r[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(r)
	}
	strs := make([]string, 1+rng.Intn(12))
	for i := range strs {
		switch k := rng.Intn(8); {
		case k == 0 && i > 0:
			strs[i] = strs[rng.Intn(i)]
		case k == 1 && i > 0:
			strs[i] = word(1+rng.Intn(2)) + strs[rng.Intn(i)]
		case k == 2:
			strs[i] = word(1) + "\x00" + word(1)
		default:
			strs[i] = word(1 + rng.Intn(6))
		}
	}
	return strs
}

func TestSearchOrderOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 400; trial++ {
		strs := randomStrings(rng)
		tr := New(strs)
		var patterns []string
		for _, s := range strs {
			r := []rune(s)
			for i := range r {
				patterns = append(patterns, string(r[i:min(i+1+rng.Intn(3), len(r))]))
			}
		}
		for _, p := range patterns {
			for _, limit := range []int{0, 1, 3, 10} {
				got, want := tr.Search(p, limit), oracleSearch(strs, p, limit)
				if !slices.Equal(got, want) {
					t.Fatalf("strings %q: Search(%q, %d) = %v, oracle %v", strs, p, limit, got, want)
				}
			}
		}
	}
}

// FuzzSuffixSearch: for any string set, pattern and limit, Search returns
// exactly the oracle's strings in the oracle's order.
func FuzzSuffixSearch(f *testing.F) {
	f.Add("banana\nbandana\nana\nnana", "an", int8(3))
	f.Add("ü日本語\n日本\n本\nabc\nabc", "本", int8(0))
	f.Add("ab\nb\nx\x00b\nb\x01", "b", int8(1))
	f.Add("x\xffyz\n\xff\xfe\xfd", "\xff", int8(-1))
	f.Fuzz(func(t *testing.T, strs, pattern string, limit int8) {
		in := strings.Split(strs, "\n")
		got, want := New(in).Search(pattern, int(limit)), oracleSearch(in, pattern, int(limit))
		if !slices.Equal(got, want) {
			t.Fatalf("strings %q: Search(%q, %d) = %v, oracle %v", in, pattern, limit, got, want)
		}
	})
}
