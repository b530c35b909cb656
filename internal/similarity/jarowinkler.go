// Package similarity implements the string similarity measures used by
// the Query Suggestion Module. The paper selects Jaro-Winkler (Section
// 6.2.1) because it favors strings matching from the beginning; we also
// provide Levenshtein and Jaccard for the ablation benchmarks comparing
// the choice of measure.
//
// Jaro-Winkler runs on thousands of candidate literals per query. On
// ASCII strings of at most 128 bytes it treats bytes as runes, with its
// match flags on the stack: no allocation, and the same float64 as the
// rune path. JaroWinklerBound bounds the score from byte counts alone,
// so a search with threshold θ can skip a candidate without scoring it.
package similarity

import "unicode/utf8"

// asciiMax is the longest string the allocation-free kernel takes.
const asciiMax = 128

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
		var ba, bb [asciiMax]byte
		var ma, mb [asciiMax]bool
		return jaro(ba[:copy(ba[:], a)], bb[:copy(bb[:], b)], ma[:len(a)], mb[:len(b)])
	}
	ra, rb := []rune(a), []rune(b)
	return jaro(ra, rb, make([]bool, len(ra)), make([]bool, len(rb)))
}

// jaro scores two character sequences; matchA and matchB are zeroed
// flags as long as ra and rb.
func jaro[T byte | rune](ra, rb []T, matchA, matchB []bool) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
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
	m := float64(matches)
	t := float64(trans) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// shortASCII reports whether s fits the allocation-free kernel.
func shortASCII(s string) bool {
	if len(s) > asciiMax {
		return false
	}
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
// common prefix grows with it. The zero value, a target the kernel does
// not take, and a non-ASCII s get the trivial bound 1.
type JaroWinklerBound struct {
	target string
	counts [asciiMax]uint8 // byte histogram of target
	ok     bool
}

// NewJaroWinklerBound counts target's bytes once for every later Max.
func NewJaroWinklerBound(target string) JaroWinklerBound {
	jb := JaroWinklerBound{target: target, ok: shortASCII(target)}
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
