// Package similarity implements the string similarity measures used by
// the Query Suggestion Module. The paper selects Jaro-Winkler (Section
// 6.2.1) because it favors strings matching from the beginning; we also
// provide Levenshtein and Jaccard for the ablation benchmarks comparing
// the choice of measure.
//
// Jaro-Winkler runs on thousands of candidate literals per query. On
// ASCII strings of at most 64 bytes it runs a bit-parallel kernel: the
// candidate's positions of each byte value are one uint64, so finding a
// character's match in its window is one AND and a lowest-bit pick
// instead of a loop over the window. It allocates nothing and returns
// the same float64 as the rune path, which takes every other input.
// JaroWinklerBound bounds the score from byte counts alone, so a search
// with threshold θ can skip a candidate without scoring it.
package similarity

import (
	"math"
	"math/bits"
	"unicode/utf8"
)

// kernelMax is the longest string the bit-parallel kernel takes: one
// bit per byte position in a uint64.
const kernelMax = 64

// JaroWinkler returns the Jaro-Winkler similarity of two strings in
// [0, 1]. Identical strings score 1; completely dissimilar strings score
// 0. The standard prefix scale 0.1 with a maximum common-prefix length of
// 4 is used.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	if j == 0 {
		return 0
	}
	return winkler(j, commonPrefix(a, b))
}

// winkler adds the prefix bonus to a Jaro score.
func winkler(j float64, prefix int) float64 {
	const scale = 0.1
	return j + float64(prefix)*scale*(1-j)
}

// commonPrefix is the length in runes, up to 4, of the common prefix of
// a and b, decoded as []rune conversion does, invalid bytes included.
func commonPrefix(a, b string) int {
	n := 0
	for _, r := range a {
		if n == 4 || b == "" {
			break
		}
		rb, size := utf8.DecodeRuneInString(b)
		if r != rb {
			break
		}
		b = b[size:]
		n++
	}
	return n
}

// Jaro returns the Jaro similarity of two strings in [0, 1].
func Jaro(a, b string) float64 {
	if shortASCII(a) && shortASCII(b) {
		return jaroASCII(a, b)
	}
	return jaroRunes([]rune(a), []rune(b))
}

// jaroWindow is how far apart two equal characters may sit and still
// match.
func jaroWindow(la, lb int) int {
	return max(max(la, lb)/2-1, 0)
}

// jaroScore is the Jaro formula over the match and transposition
// counts, shared by both paths so they return the same float64.
func jaroScore(matches, trans, la, lb int) float64 {
	m := float64(matches)
	t := float64(trans) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// jaroRunes scores two rune sequences with the nested loop: each
// character of ra matches the first unmatched equal character of rb in
// its window.
func jaroRunes(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := jaroWindow(la, lb)
	matchA, matchB := make([]bool, la), make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo, hi := max(i-window, 0), min(i+window+1, lb)
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched characters.
	trans := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			trans++
		}
		j++
	}
	return jaroScore(matches, trans, la, lb)
}

// jaroASCII is jaroRunes on strings of at most 64 ASCII bytes, one bit
// per position. free[c] holds the still unmatched positions of byte c
// in b, so the lowest bit of free[a[i]] inside i's window is the j the
// nested loop stops at: the same greedy matching, hence the same score.
func jaroASCII(a, b string) float64 {
	la, lb := len(a), len(b)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := jaroWindow(la, lb)
	var free [utf8.RuneSelf]uint64
	for j := 0; j < lb; j++ {
		free[b[j]] |= 1 << j
	}
	var matchA, matchB uint64
	for i := 0; i < la; i++ {
		lo, hi := max(i-window, 0), min(i+window+1, lb)
		// Bits lo..hi-1; a shift by 64 yields 0, so hi == 64 is all ones.
		span := (uint64(1)<<hi - 1) &^ (uint64(1)<<lo - 1)
		if c := free[a[i]] & span; c != 0 {
			c &= -c
			free[a[i]] &^= c
			matchB |= c
			matchA |= 1 << i
		}
	}
	if matchA == 0 {
		return 0
	}
	// Pair the k-th matched position of a with the k-th of b.
	trans := 0
	for ma, mb := matchA, matchB; ma != 0; ma, mb = ma&(ma-1), mb&(mb-1) {
		if a[bits.TrailingZeros64(ma)] != b[bits.TrailingZeros64(mb)] {
			trans++
		}
	}
	return jaroScore(bits.OnesCount64(matchA), trans, la, lb)
}

// shortASCII reports whether s fits the bit-parallel kernel.
func shortASCII(s string) bool {
	return len(s) <= kernelMax && isASCII(s)
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// JaroWinklerBound bounds JaroWinkler(target, s) from above for many s.
// Jaro's match count m is at most the byte-multiset intersection of the
// strings; with no transpositions Jaro is then at most
// (m/|target| + m/|s| + 1)/3, and the Winkler bonus over the exact
// common prefix grows with it. The zero value, a target that is not
// ASCII or too long for a uint8 histogram, and a non-ASCII s get the
// trivial bound 1.
type JaroWinklerBound struct {
	target string
	counts [utf8.RuneSelf]uint8 // byte histogram of target
	ok     bool
}

// NewJaroWinklerBound counts target's bytes once for every later Max.
func NewJaroWinklerBound(target string) JaroWinklerBound {
	jb := JaroWinklerBound{target: target, ok: len(target) <= math.MaxUint8 && isASCII(target)}
	for i := 0; jb.ok && i < len(target); i++ {
		jb.counts[target[i]]++
	}
	return jb
}

// Max returns an upper bound on JaroWinkler(target, s). It does not
// modify jb, so one bound may serve concurrent scans.
func (jb *JaroWinklerBound) Max(s string) float64 {
	if !jb.ok || jb.target == "" && s == "" {
		return 1
	}
	left := jb.counts
	m := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return 1
		}
		if left[c] > 0 {
			left[c]--
			m++
		}
	}
	if m == 0 {
		return 0 // Jaro is 0 without a match
	}
	fm := float64(m)
	return winkler((fm/float64(len(jb.target))+fm/float64(len(s))+1)/3, commonPrefix(jb.target, s))
}
