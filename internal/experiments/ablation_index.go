package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// prefixIndex is the ablation alternative to the suffix tree: a sorted
// string slice with binary search. It can only answer *prefix* queries —
// which is exactly why the paper chose a suffix tree: users type
// mid-string fragments ("Kennedy" for "John F. Kennedy") that a prefix
// index cannot see.
type prefixIndex struct {
	sorted []string
}

func newPrefixIndex(strs []string) *prefixIndex {
	out := append([]string(nil), strs...)
	sort.Strings(out)
	return &prefixIndex{sorted: out}
}

// search returns up to limit indexed strings with the given prefix.
func (p *prefixIndex) search(prefix string, limit int) []string {
	i := sort.SearchStrings(p.sorted, prefix)
	var out []string
	for ; i < len(p.sorted) && strings.HasPrefix(p.sorted[i], prefix); i++ {
		out = append(out, p.sorted[i])
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// IndexAblation compares the suffix tree against a binary-search prefix
// index on the QCM workload: recall (fraction of lookup terms with at
// least one match) and mean lookup latency. The suffix tree must win on
// recall because completion terms are substrings, not prefixes.
func IndexAblation(env *Env) []AblationRow {
	terms := qcmTerms()
	// The same literals the tree indexes.
	pi := newPrefixIndex(env.Cache.Bins.Tree())

	treeHits, prefixHits := 0, 0
	start := time.Now()
	for _, t := range terms {
		if len(env.Cache.Tree.Search(t, 1)) > 0 {
			treeHits++
		}
	}
	treeNs := float64(time.Since(start).Nanoseconds()) / float64(len(terms))
	start = time.Now()
	for _, t := range terms {
		if len(pi.search(t, 1)) > 0 {
			prefixHits++
		}
	}
	prefixNs := float64(time.Since(start).Nanoseconds()) / float64(len(terms))

	n := float64(len(terms))
	return []AblationRow{
		{
			Name:  "suffix tree (paper)",
			Value: 100 * float64(treeHits) / n,
			Extra: treeNs / 1e6,
			Note:  "hit-%, ms/lookup; finds substrings anywhere",
		},
		{
			Name:  "binary-search prefix index",
			Value: 100 * float64(prefixHits) / n,
			Extra: prefixNs / 1e6,
			Note:  "hit-%, ms/lookup; prefix-only, misses mid-string terms",
		},
	}
}

// ResidualIndexAblation compares the residual lookup Complete makes, the
// bins' trigram posting index, against the paper's Algorithm 1 scan it
// replaced for terms of three or more bytes, on the QCM workload with
// the γ window: mean ns per lookup, and the heap the index adds.
func ResidualIndexAblation(env *Env) []AblationRow {
	terms := qcmTerms()
	cfg := env.PUM.Config()
	lookup := func(search func(pattern string, lo, hi, p, limit int) []string) float64 {
		start := time.Now()
		for _, t := range terms {
			lo := len([]rune(t))
			search(t, lo, lo+cfg.Gamma, cfg.Workers, cfg.K)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(terms))
	}
	indexBytes := env.Cache.Bins.IndexBytes()
	return []AblationRow{
		{
			Name:  "trigram posting index",
			Value: lookup(env.Cache.Bins.SearchSubstring),
			Extra: float64(indexBytes),
			Note:  fmt.Sprintf("ns/lookup; %d KB index over %d literals", indexBytes/1024, env.Cache.Bins.Len()),
		},
		{
			Name:  "Algorithm-1 scan (paper)",
			Value: lookup(env.Cache.Bins.ScanSubstring),
			Note:  fmt.Sprintf("ns/lookup; no index, %d workers", cfg.Workers),
		},
	}
}

// BinFilterAblation measures the γ length-window's effect on the
// residual scan: literals scanned and latency with the paper's window
// versus a full scan of every bin.
func BinFilterAblation(env *Env) []AblationRow {
	terms := qcmTerms()
	gamma := env.PUM.Config().Gamma
	total := env.Cache.Bins.Len()

	scan := func(windowed bool) (float64, float64) {
		scanned := 0
		start := time.Now()
		for _, t := range terms {
			lo, hi := 0, 1<<20
			if windowed {
				lo = len([]rune(t))
				hi = lo + gamma
			}
			scanned += env.Cache.Bins.SelectedCount(lo, hi)
			env.Cache.Bins.ScanSubstring(t, lo, hi, env.PUM.Config().Workers, 10)
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(len(terms))
		return float64(scanned) / float64(len(terms)), ns
	}
	winScanned, winNs := scan(true)
	fullScanned, fullNs := scan(false)
	_ = total
	return []AblationRow{
		{
			Name:  "γ length window (paper)",
			Value: winScanned,
			Extra: winNs / 1e6,
			Note:  "literals scanned/lookup, ms/lookup",
		},
		{
			Name:  "no length filter",
			Value: fullScanned,
			Extra: fullNs / 1e6,
			Note:  "literals scanned/lookup, ms/lookup",
		},
	}
}
