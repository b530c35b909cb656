// Package bins implements the residual literal bins of Section 5.2: the
// cached literals that do not fit in the suffix tree, organized into bins
// keyed by literal length so that the QCM's sequential scan only touches
// bins in [|t|, |t|+γ] and the QSM's similarity search only touches bins
// in [|l|−α, |l|+β]. Scans are parallelized over P workers using the
// load-balancing task assignment of Algorithm 1.
//
// The similarity search under its default (nil) measure puts
// similarity.JaroWinklerBound ahead of Jaro-Winkler: a literal bounded
// below θ cannot match and is not scored, so the matches are those of
// scoring every literal. An explicit measure scores every literal.
package bins

import (
	"sort"
	"strings"
	"sync"

	"sapphire/internal/similarity"
)

// Bins holds residual literals bucketed by rune length. The zero value is
// not usable; call New.
type Bins struct {
	byLen map[int][]string
	total int
}

// New builds bins from the given literals. Duplicates are kept only once
// per bin. Bin key is the rune length of the literal, mirroring
// bin(literal) = |literal| from the paper.
func New(literals []string) *Bins {
	b := &Bins{byLen: make(map[int][]string)}
	seen := make(map[string]bool, len(literals))
	for _, l := range literals {
		if l == "" || seen[l] {
			continue
		}
		seen[l] = true
		n := len([]rune(l))
		b.byLen[n] = append(b.byLen[n], l)
		b.total++
	}
	for n := range b.byLen {
		sort.Strings(b.byLen[n])
	}
	return b
}

// Len returns the total number of binned literals.
func (b *Bins) Len() int { return b.total }

// BinCount returns the number of non-empty bins (the paper reports ~80
// bins for DBpedia under the 80-char cap).
func (b *Bins) BinCount() int { return len(b.byLen) }

// BinSizes returns a map from length to bin size.
func (b *Bins) BinSizes() map[int]int {
	out := make(map[int]int, len(b.byLen))
	for n, ls := range b.byLen {
		out[n] = len(ls)
	}
	return out
}

// Select returns the literals of all bins with length in [lo, hi],
// concatenated in deterministic order. This is the bins′ input of
// Algorithms 1 and 2.
func (b *Bins) Select(lo, hi int) [][]string {
	if lo < 0 {
		lo = 0
	}
	var out [][]string
	for n := lo; n <= hi; n++ {
		if ls, ok := b.byLen[n]; ok {
			out = append(out, ls)
		}
	}
	return out
}

// SelectedCount returns the number of literals in bins [lo, hi]. The
// paper reports that length filtering eliminates ~46% of literals from
// a QCM scan on average.
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

// SearchSubstring scans bins [lo, hi] with p parallel workers and returns
// up to limit literals containing pattern, shortest first (the QCM
// returns the shortest residual matches; Section 6.1). limit <= 0 means
// all.
func (b *Bins) SearchSubstring(pattern string, lo, hi, p, limit int) []string {
	if pattern == "" {
		return nil
	}
	sel := b.Select(lo, hi)
	matches := b.parallelScan(sel, p, func(l string) bool {
		return strings.Contains(l, pattern)
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

// SearchSimilar scans bins [lo, hi] with p workers and returns all
// literals whose similarity to target (under measure m, Jaro-Winkler when
// nil) is at least theta, sorted by descending score. This is the literal
// alternative search of Algorithm 2 (line 9). When m is nil, literals
// that Jaro-Winkler's upper bound places below theta are skipped
// unscored.
func (b *Bins) SearchSimilar(target string, lo, hi, p int, theta float64, m similarity.Measure) []SimilarityMatch {
	var bound similarity.JaroWinklerBound // the zero value skips nothing
	if m == nil {
		m, bound = similarity.JaroWinkler, similarity.NewJaroWinklerBound(target)
	}
	sel := b.Select(lo, hi)
	type scored struct {
		lit   string
		score float64
	}
	tasks := AssignTasks(sel, p)
	results := make([][]scored, len(tasks))
	var wg sync.WaitGroup
	for wi, ts := range tasks {
		wg.Add(1)
		go func(wi int, ts []Task) {
			defer wg.Done()
			var local []scored
			for _, task := range ts {
				for _, l := range sel[task.Bin][task.From:task.To] {
					// The slack absorbs rounding in the bound.
					if bound.Max(l) < theta-1e-9 {
						continue
					}
					if s := m(target, l); s >= theta {
						local = append(local, scored{l, s})
					}
				}
			}
			results[wi] = local
		}(wi, ts)
	}
	wg.Wait()
	var out []SimilarityMatch
	for _, rs := range results {
		for _, r := range rs {
			out = append(out, SimilarityMatch{Literal: r.lit, Score: r.score})
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

// parallelScan runs pred over the selected bins using Algorithm 1 task
// assignment and returns matching literals.
func (b *Bins) parallelScan(sel [][]string, p int, pred func(string) bool) []string {
	tasks := AssignTasks(sel, p)
	results := make([][]string, len(tasks))
	var wg sync.WaitGroup
	for wi, ts := range tasks {
		wg.Add(1)
		go func(wi int, ts []Task) {
			defer wg.Done()
			var local []string
			for _, task := range ts {
				for _, l := range sel[task.Bin][task.From:task.To] {
					if pred(l) {
						local = append(local, l)
					}
				}
			}
			results[wi] = local
		}(wi, ts)
	}
	wg.Wait()
	var out []string
	for _, rs := range results {
		out = append(out, rs...)
	}
	return out
}

func sortShortestFirst(ls []string) {
	sort.Slice(ls, func(i, j int) bool {
		if len(ls[i]) != len(ls[j]) {
			return len(ls[i]) < len(ls[j])
		}
		return ls[i] < ls[j]
	})
}
