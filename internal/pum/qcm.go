package pum

import (
	"strings"
)

// Completion is one QCM auto-complete suggestion.
type Completion struct {
	// Text is the suggested string: a predicate display name or a
	// literal lexical form.
	Text string
	// IsPredicate distinguishes predicate suggestions from literals.
	IsPredicate bool
	// FromTree reports whether the match came from the suffix tree
	// (returned first, before the residual search completes) or from the
	// residual bins.
	FromTree bool
}

// Complete implements the QCM (Figure 5): given the string t typed so
// far, return up to K strings in the cached data containing t. Matches
// from the suffix tree are prioritized; the remainder comes from the
// residual bins of length |t|..|t|+γ, shortest results first.
// Variables (strings starting with '?') produce no suggestions.
func (p *PUM) Complete(term string) []Completion {
	if term == "" || strings.HasPrefix(term, "?") {
		return nil
	}
	k := p.cfg.K
	var out []Completion

	// Step 1: suffix tree — prioritized matches, O(|t| + z).
	for _, m := range p.cache.Tree.Search(term, k) {
		if offered(out, m.Value) {
			continue
		}
		out = append(out, Completion{
			Text:        m.Value,
			IsPredicate: p.cache.IsPredicateDisplay(m.Value),
			FromTree:    true,
		})
		if len(out) >= k {
			return out
		}
	}

	// Step 2: residual bins, lengths |t| to |t|+γ.
	lo := len([]rune(term))
	hi := lo + p.cfg.Gamma
	for _, lit := range p.cache.Bins.SearchSubstring(term, lo, hi, p.cfg.Workers, k-len(out)) {
		if offered(out, lit) {
			continue
		}
		out = append(out, Completion{Text: lit})
		if len(out) >= k {
			break
		}
	}
	return out
}

// offered reports whether out already holds text. Tree and bins
// partition a cache, but a merged cache may repeat a literal; with at
// most K completions a linear scan is cheaper than a set.
func offered(out []Completion, text string) bool {
	for _, c := range out {
		if c.Text == text {
			return true
		}
	}
	return false
}

// CompleteTreeOnly searches only the suffix tree; used by the
// response-time experiments to separate the two QCM components.
func (p *PUM) CompleteTreeOnly(term string) []Completion {
	if term == "" || strings.HasPrefix(term, "?") {
		return nil
	}
	var out []Completion
	for _, m := range p.cache.Tree.Search(term, p.cfg.K) {
		out = append(out, Completion{
			Text:        m.Value,
			IsPredicate: p.cache.IsPredicateDisplay(m.Value),
			FromTree:    true,
		})
	}
	return out
}

// CompleteBinsOnly searches only the residual bins, as Complete's second
// step does; workers matters only to terms shorter than a trigram. Used
// by the response-time experiments (Section 7.3.1).
func (p *PUM) CompleteBinsOnly(term string, workers int) []Completion {
	if term == "" || strings.HasPrefix(term, "?") {
		return nil
	}
	lo := len([]rune(term))
	hi := lo + p.cfg.Gamma
	var out []Completion
	for _, lit := range p.cache.Bins.SearchSubstring(term, lo, hi, workers, p.cfg.K) {
		out = append(out, Completion{Text: lit})
	}
	return out
}
