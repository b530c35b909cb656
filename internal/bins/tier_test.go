package bins

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unicode/utf8"

	"sapphire/internal/similarity"
)

// similarScan is SearchSimilar's reference: every distinct literal of
// either list in the rune-length window [lo, hi], scored with an
// explicit Jaro-Winkler, best first, ties by literal.
func similarScan(residual, tree []string, target string, lo, hi int, theta float64) []SimilarityMatch {
	seen := make(map[string]bool)
	var out []SimilarityMatch
	for _, l := range slices.Concat(residual, tree) {
		if l == "" || seen[l] {
			continue
		}
		seen[l] = true
		if n := utf8.RuneCountInString(l); n < lo || n > hi {
			continue
		}
		if s := similarity.JaroWinkler(target, l); s >= theta {
			out = append(out, SimilarityMatch{Literal: l, Score: s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Literal < out[j].Literal
	})
	return out
}

// sameMatches reports whether got equals want, scores bit for bit.
func sameMatches(got, want []SimilarityMatch) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Literal != want[i].Literal || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}

// TestTwoTierContract: over random literal sets with duplicates, random
// tree subsets, tree-only literals and literals in both lists,
//   - every residual-only method answers what a table built from the
//     residual literals alone answers, and never returns a tree literal;
//   - InTree is tree-set membership and Tree is that set, shortest first;
//   - SearchSimilar, bound-pruned or not, equals a plain Jaro-Winkler
//     scan of both tiers, scores bit for bit.
func TestTwoTierContract(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	treeHits, similar := 0, 0
	for set := 0; set < 60; set++ {
		residual := make([]string, rng.Intn(120))
		for i := range residual {
			if i > 0 && rng.Intn(5) == 0 {
				residual[i] = residual[rng.Intn(i)] // duplicate
			} else {
				residual[i] = randomLiteral(rng)
			}
		}
		tree := randomSubset(rng, residual) // in both lists: the tree tier wins
		for i := rng.Intn(10); i > 0; i-- {
			tree = append(tree, randomLiteral(rng))
		}
		if len(tree) > 0 {
			tree = append(tree, tree[rng.Intn(len(tree))], "")
		}
		b := New(residual, tree)

		inTree := make(map[string]bool)
		for _, l := range tree {
			if l != "" {
				inTree[l] = true
			}
		}
		var onlyResidual []string
		for _, l := range residual {
			if !inTree[l] {
				onlyResidual = append(onlyResidual, l)
			}
		}
		ref := New(onlyResidual, nil)

		wantTree := make([]string, 0, len(inTree))
		for l := range inTree {
			wantTree = append(wantTree, l)
		}
		sortShortestFirst(wantTree)
		if got := b.Tree(); !slices.Equal(got, wantTree) {
			t.Fatalf("set %d: Tree = %q, want %q", set, got, wantTree)
		}
		probes := slices.Concat(residual, tree, []string{randomLiteral(rng), ""})
		for _, l := range probes {
			if b.InTree(l) != inTree[l] {
				t.Fatalf("set %d: InTree(%q) = %v, want %v", set, l, b.InTree(l), inTree[l])
			}
		}

		if b.Len() != ref.Len() || b.BinCount() != ref.BinCount() || b.IndexBytes() != ref.IndexBytes() {
			t.Fatalf("set %d: Len/BinCount/IndexBytes = %d/%d/%d, residual-only table %d/%d/%d",
				set, b.Len(), b.BinCount(), b.IndexBytes(), ref.Len(), ref.BinCount(), ref.IndexBytes())
		}
		for lo := -1; lo <= 13; lo++ {
			hi := lo + rng.Intn(6)
			if got, want := b.Select(lo, hi), ref.Select(lo, hi); !reflect.DeepEqual(got, want) {
				t.Fatalf("set %d: Select(%d, %d) = %q, want %q", set, lo, hi, got, want)
			}
			if got, want := b.SelectedCount(lo, hi), ref.SelectedCount(lo, hi); got != want {
				t.Fatalf("set %d: SelectedCount(%d, %d) = %d, want %d", set, lo, hi, got, want)
			}
		}
		for i := 0; i < 40; i++ {
			l := probes[rng.Intn(len(probes))]
			pattern := randomLiteral(rng)
			if l != "" {
				from := rng.Intn(len(l))
				pattern = l[from : from+1+rng.Intn(len(l)-from)]
			}
			if inTree[l] {
				treeHits++
			}
			lo := rng.Intn(8) - 1
			hi := lo + rng.Intn(10)
			got := b.SearchSubstring(pattern, lo, hi, 2, 0)
			scan := b.ScanSubstring(pattern, lo, hi, 2, 0)
			if want := ref.SearchSubstring(pattern, lo, hi, 2, 0); !slices.Equal(got, want) || !slices.Equal(scan, want) {
				t.Fatalf("set %d pattern %q [%d,%d]: SearchSubstring %q, ScanSubstring %q, residual-only %q", set, pattern, lo, hi, got, scan, want)
			}
			for _, m := range got {
				if inTree[m] {
					t.Fatalf("set %d pattern %q: residual search returned tree literal %q", set, pattern, m)
				}
			}

			target := l
			if rng.Intn(2) == 0 {
				target = randomLiteral(rng)
			}
			n := utf8.RuneCountInString(target)
			for _, theta := range []float64{0, 0.5, 0.7, 0.9} {
				want := similarScan(residual, tree, target, n-2, n+3, theta)
				for _, m := range []similarity.Measure{nil, similarity.JaroWinkler} {
					if got := b.SearchSimilar(target, n-2, n+3, 3, theta, m); !sameMatches(got, want) {
						t.Fatalf("set %d target %q θ=%v explicit=%v:\ngot  %v\nwant %v", set, target, theta, m != nil, got, want)
					}
				}
				similar += len(want)
			}
		}
	}
	if treeHits == 0 || similar == 0 {
		t.Fatalf("tree probes %d, similarity matches %d: the comparison is vacuous", treeHits, similar)
	}
}

// FuzzSearchSimilar: for any literal set, tree subset, target, window
// and θ, the bound-pruned search (nil measure) answers what a plain
// Jaro-Winkler scan of both tiers answers, scores bit for bit.
func FuzzSearchSimilar(f *testing.F) {
	f.Add("Kennedy\nJohn Kennedy\nKent\nKennedys", uint64(0b10), "Kennedys", int8(5), int8(11), uint8(178))
	f.Add("ü日本語\n日本\nabc\nabc", uint64(0b1), "日本語", int8(1), int8(4), uint8(0))
	f.Add("Viking Press\nViking Pres\nPenguin", uint64(0b101), "Viking Pres", int8(-3), int8(20), uint8(230))
	f.Add("x\xffyz\n\xff\xfe\xfd", uint64(1), "\xffy", int8(0), int8(9), uint8(128))
	f.Fuzz(func(t *testing.T, lits string, treeMask uint64, target string, lo, hi int8, theta8 uint8) {
		residual, tree := splitTiers(lits, treeMask)
		theta := float64(theta8) / 255
		got := New(residual, tree).SearchSimilar(target, int(lo), int(hi), 3, theta, nil)
		if want := similarScan(residual, tree, target, int(lo), int(hi), theta); !sameMatches(got, want) {
			t.Fatalf("target %q window [%d,%d] θ=%v:\ngot  %v\nwant %v", target, lo, hi, theta, got, want)
		}
	})
}
