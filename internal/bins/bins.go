// Package bins is the one table of cached literals the completion layer
// reads (Section 5.2). Every literal is stored once, in one of two tiers:
// the tree tier holds the most significant literals, the ones the suffix
// tree also indexes, and the residual tier holds the rest, organized
// into bins keyed by literal length so that the QCM's search only
// considers bins in [|t|, |t|+γ]. Scans are parallelized over P workers
// using the load-balancing task assignment of Algorithm 1.
//
// The substring search (SearchSubstring, ScanSubstring), Select and the
// counts read the residual tier only: tree literals are completed from
// the suffix tree. The QSM's similarity search (SearchSimilar) reads both
// tiers, in [|l|−α, |l|+β], because the most significant literals are
// the alternatives that matter most.
//
// The QCM's substring search departs from the paper's sequential scan for
// patterns of three or more bytes: New also builds a byte-trigram posting
// index over the residual literals, and SearchSubstring verifies only the
// literals of the pattern's rarest trigram, in output order, stopping at
// the limit. Shorter patterns have no trigram and are scanned
// (ScanSubstring).
//
// The similarity search under its default (nil) measure puts
// similarity.JaroWinklerBound ahead of Jaro-Winkler: a literal bounded
// below θ cannot match and is not scored, so the matches are those of
// scoring every literal. An explicit measure scores every literal.
package bins

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"
	"unsafe"

	"sapphire/internal/similarity"
)

// The two tiers, indexes into Bins.byLen.
const (
	residualTier = iota
	treeTier
)

// Bins is the table of cached literals. The zero value is not usable;
// call New.
type Bins struct {
	// byLen[tier][n] holds the literals of one tier with n runes,
	// sorted.
	byLen [2]map[int][]string
	// sorted holds every literal once: the residual tier in
	// SearchSubstring's output order, byte length then lexical, and from
	// cut on the tree tier in the same order. A literal's id is its
	// position here; runeLen[id] is a residual literal's bin.
	sorted  []string
	cut     int
	runeLen []uint32
	// The trigram posting index over the residual tier in CSR form: the
	// ids of the literals containing trigram grams[g] are
	// ids[offsets[g]:offsets[g+1]], in ascending order.
	grams   []uint32
	offsets []uint32
	ids     []uint32
}

// New builds the table from the residual and the tree literals. Empty
// strings are dropped and each literal is kept once; a literal in both
// lists belongs to the tree tier. Bin key is the rune length of the
// literal, mirroring bin(literal) = |literal| from the paper.
func New(residual, tree []string) *Bins {
	b := &Bins{}
	seen := make(map[string]bool, len(residual)+len(tree))
	treeLits := b.addTier(treeTier, tree, seen) // first, so the tree tier wins
	b.sorted = slices.Concat(b.addTier(residualTier, residual, seen), treeLits)
	b.cut = len(b.sorted) - len(treeLits)
	b.runeLen = make([]uint32, b.cut)
	for id, l := range b.sorted[:b.cut] {
		b.runeLen[id] = uint32(utf8.RuneCountInString(l))
	}
	b.buildIndex()
	return b
}

// addTier bins the literals of ls not yet seen into tier and returns
// them shortest first.
func (b *Bins) addTier(tier int, ls []string, seen map[string]bool) []string {
	b.byLen[tier] = make(map[int][]string)
	var out []string
	for _, l := range ls {
		if l == "" || seen[l] {
			continue
		}
		seen[l] = true
		n := utf8.RuneCountInString(l)
		b.byLen[tier][n] = append(b.byLen[tier][n], l)
		out = append(out, l)
	}
	for _, bin := range b.byLen[tier] {
		sort.Strings(bin)
	}
	sortShortestFirst(out)
	return out
}

// buildIndex fills the trigram posting index over the residual tier.
func (b *Bins) buildIndex() {
	n := 0
	for _, l := range b.sorted[:b.cut] {
		n += max(len(l)-2, 0)
	}
	// One (trigram, id) pair per trigram occurrence; sorting them groups
	// the posting lists with ascending ids, and Compact drops a trigram
	// repeated within one literal.
	pairs := make([]uint64, 0, n)
	for id, l := range b.sorted[:b.cut] {
		for i := 0; i+3 <= len(l); i++ {
			pairs = append(pairs, uint64(trigram(l[i:]))<<32|uint64(id))
		}
	}
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)
	b.ids = make([]uint32, len(pairs))
	for i, pair := range pairs {
		if g := uint32(pair >> 32); len(b.grams) == 0 || b.grams[len(b.grams)-1] != g {
			b.grams = append(b.grams, g)
			b.offsets = append(b.offsets, uint32(i))
		}
		b.ids[i] = uint32(pair)
	}
	b.offsets = append(b.offsets, uint32(len(pairs)))
}

// trigram packs the first three bytes of s.
func trigram(s string) uint32 {
	return uint32(s[0])<<16 | uint32(s[1])<<8 | uint32(s[2])
}

// postings returns the ids of the literals containing trigram g.
func (b *Bins) postings(g uint32) []uint32 {
	i, ok := slices.BinarySearch(b.grams, g)
	if !ok {
		return nil
	}
	return b.ids[b.offsets[i]:b.offsets[i+1]]
}

// IndexBytes returns the heap the substring index adds to the residual
// tier: the literals' string headers in output order, their rune lengths
// and the posting arrays.
func (b *Bins) IndexBytes() int {
	return int(unsafe.Sizeof(""))*b.cut + 4*(len(b.runeLen)+len(b.grams)+len(b.offsets)+len(b.ids))
}

// Len returns the number of residual literals.
func (b *Bins) Len() int { return b.cut }

// BinCount returns the number of non-empty residual bins (the paper
// reports ~80 bins for DBpedia under the 80-char cap).
func (b *Bins) BinCount() int { return len(b.byLen[residualTier]) }

// Tree returns the tree tier: byte length, then lexical.
func (b *Bins) Tree() []string { return b.sorted[b.cut:] }

// InTree reports whether l is a tree-tier literal.
func (b *Bins) InTree(l string) bool {
	_, ok := slices.BinarySearchFunc(b.Tree(), l, shortestFirst)
	return ok
}

// Select returns the residual literals of all bins with length in
// [lo, hi], concatenated in deterministic order. This is the bins′ input
// of Algorithm 1; SearchSimilar adds the tree tier's bins to it.
func (b *Bins) Select(lo, hi int) [][]string { return b.selectTier(residualTier, lo, hi) }

func (b *Bins) selectTier(tier, lo, hi int) [][]string {
	var out [][]string
	for n := max(lo, 0); n <= hi; n++ {
		if ls, ok := b.byLen[tier][n]; ok {
			out = append(out, ls)
		}
	}
	return out
}

// SelectedCount returns the number of residual literals in bins
// [lo, hi]. The paper reports that length filtering eliminates ~46% of
// literals from a QCM scan on average.
func (b *Bins) SelectedCount(lo, hi int) int {
	n := 0
	for _, bin := range b.Select(lo, hi) {
		n += len(bin)
	}
	return n
}

// Task is one worker assignment produced by Algorithm 1: a contiguous
// range [From, To) within bin Bin.
type Task struct {
	Bin      int // index into the bins′ slice
	From, To int // literal index range within the bin
}

// AssignTasks implements Algorithm 1 ("Assign Tasks to Processes"): it
// distributes the literals of the selected bins over p workers so that
// each worker scans an (almost) equal number of literals, splitting bins
// across workers when needed. The result has exactly p entries (some may
// be empty when there are fewer literals than workers).
func AssignTasks(bins [][]string, p int) [][]Task {
	if p <= 0 {
		p = 1
	}
	total := 0
	for _, bin := range bins {
		total += len(bin)
	}
	out := make([][]Task, p)
	if total == 0 {
		return out
	}
	// Process capacity d = ceil(n/P) so that capacities cover all
	// literals (the paper's integer division is interpreted as an even
	// split; ceiling keeps the final worker from overflowing).
	d := (total + p - 1) / p
	cap := make([]int, p)
	for i := range cap {
		cap[i] = d
	}
	pid := 0
	for bi, bin := range bins {
		j := len(bin) // literals remaining in bin bi
		for j > 0 {
			if pid >= p {
				pid = p - 1
			}
			if cap[pid] == 0 {
				pid++
				continue
			}
			if j <= cap[pid] {
				// Worker pid takes the rest of the bin.
				out[pid] = append(out[pid], Task{Bin: bi, From: len(bin) - j, To: len(bin)})
				cap[pid] -= j
				j = 0
			} else {
				out[pid] = append(out[pid], Task{Bin: bi, From: len(bin) - j, To: len(bin) - j + cap[pid]})
				j -= cap[pid]
				cap[pid] = 0
				pid++
			}
		}
	}
	return out
}

// SearchSubstring returns up to limit residual literals of bins [lo, hi]
// that contain pattern, shortest first: byte length, then lexical (the QCM
// returns the shortest residual matches; Section 6.1). limit <= 0 means
// all. A pattern of three or more bytes is answered from the trigram
// index and p is unused; a shorter one is scanned with p workers.
func (b *Bins) SearchSubstring(pattern string, lo, hi, p, limit int) []string {
	if len(pattern) < 3 {
		return b.ScanSubstring(pattern, lo, hi, p, limit)
	}
	// A literal containing pattern contains each of its trigrams, so the
	// rarest trigram's posting list holds every match, in output order.
	var cand []uint32
	for i := 0; i+3 <= len(pattern); i++ {
		post := b.postings(trigram(pattern[i:]))
		if len(post) == 0 {
			return nil
		}
		if cand == nil || len(post) < len(cand) {
			cand = post
		}
	}
	var out []string
	for _, id := range cand {
		if n := int(b.runeLen[id]); n < lo || n > hi {
			continue
		}
		if l := b.sorted[id]; strings.Contains(l, pattern) {
			out = append(out, l)
			if limit > 0 && len(out) >= limit {
				break
			}
		}
	}
	return out
}

// ScanSubstring answers SearchSubstring by Algorithm 1: p parallel
// workers scan every literal of bins [lo, hi]. It is SearchSubstring's
// path for patterns shorter than a trigram, the reference its index is
// tested against, and the scan the Section 7.3.1 worker sweep times.
func (b *Bins) ScanSubstring(pattern string, lo, hi, p, limit int) []string {
	if pattern == "" {
		return nil
	}
	sel := b.Select(lo, hi)
	matches := fanOut(sel, p, func(ts []Task) (local []string) {
		for _, task := range ts {
			for _, l := range sel[task.Bin][task.From:task.To] {
				if strings.Contains(l, pattern) {
					local = append(local, l)
				}
			}
		}
		return local
	})
	sortShortestFirst(matches)
	if limit > 0 && len(matches) > limit {
		matches = matches[:limit]
	}
	return matches
}

// SimilarityMatch is a literal with its similarity score.
type SimilarityMatch struct {
	Literal string
	Score   float64
}

// SearchSimilar scans the bins [lo, hi] of both tiers with p workers and
// returns all literals whose similarity to target (under measure m,
// Jaro-Winkler when nil) is at least theta, by descending score, then
// literal. This is the literal alternative search of Algorithm 2 (line
// 9). When m is nil, literals that Jaro-Winkler's upper bound places
// below theta are skipped unscored.
func (b *Bins) SearchSimilar(target string, lo, hi, p int, theta float64, m similarity.Measure) []SimilarityMatch {
	var bound similarity.JaroWinklerBound // the zero value skips nothing
	if m == nil {
		m, bound = similarity.JaroWinkler, similarity.NewJaroWinklerBound(target)
	}
	sel := append(b.Select(lo, hi), b.selectTier(treeTier, lo, hi)...)
	out := fanOut(sel, p, func(ts []Task) (local []SimilarityMatch) {
		for _, task := range ts {
			for _, l := range sel[task.Bin][task.From:task.To] {
				// The slack absorbs rounding in the bound.
				if bound.Max(l) < theta-1e-9 {
					continue
				}
				if s := m(target, l); s >= theta {
					local = append(local, SimilarityMatch{l, s})
				}
			}
		}
		return local
	})
	slices.SortFunc(out, func(x, y SimilarityMatch) int {
		return cmp.Or(cmp.Compare(y.Score, x.Score), strings.Compare(x.Literal, y.Literal))
	})
	return out
}

// fanOut is Algorithm 1's fan-out: it assigns the literals of sel to p
// workers, runs scan on each worker's tasks in its own goroutine, and
// concatenates the results in worker order.
func fanOut[T any](sel [][]string, p int, scan func([]Task) []T) []T {
	tasks := AssignTasks(sel, p)
	results := make([][]T, len(tasks))
	var wg sync.WaitGroup
	for wi, ts := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[wi] = scan(ts)
		}()
	}
	wg.Wait()
	return slices.Concat(results...)
}

func sortShortestFirst(ls []string) { slices.SortFunc(ls, shortestFirst) }

// shortestFirst orders by byte length, then lexically.
func shortestFirst(a, b string) int {
	return cmp.Or(cmp.Compare(len(a), len(b)), strings.Compare(a, b))
}
