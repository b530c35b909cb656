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
// residual bins of length |t|..|t|+γ, shortest results first. The two
// steps cannot repeat a string: a cached literal is in exactly one tier.
// Variables (strings starting with '?') produce no suggestions.
func (p *PUM) Complete(term string) []Completion {
	if !completable(term) {
		return nil
	}
	out := p.treeStep(nil, term, p.cfg.K)
	if left := p.cfg.K - len(out); left > 0 {
		out = p.residualStep(out, term, p.cfg.Workers, left)
	}
	return out
}

// CompleteTreeOnly runs only Complete's suffix-tree step; used by the
// response-time experiments to separate the two QCM components.
func (p *PUM) CompleteTreeOnly(term string) []Completion {
	if !completable(term) {
		return nil
	}
	return p.treeStep(nil, term, p.cfg.K)
}

// CompleteBinsOnly runs only Complete's residual step; workers matters
// only to terms shorter than a trigram. Used by the response-time
// experiments (Section 7.3.1).
func (p *PUM) CompleteBinsOnly(term string, workers int) []Completion {
	if !completable(term) {
		return nil
	}
	return p.residualStep(nil, term, workers, p.cfg.K)
}

func completable(term string) bool { return term != "" && !strings.HasPrefix(term, "?") }

// treeStep appends up to limit suffix-tree matches of term to out:
// prioritized matches, O(|t| + z).
func (p *PUM) treeStep(out []Completion, term string, limit int) []Completion {
	for _, m := range p.cache.Tree.Search(term, limit) {
		out = append(out, Completion{
			Text:        m.Value,
			IsPredicate: p.cache.IsPredicateDisplay(m.Value),
			FromTree:    true,
		})
	}
	return out
}

// residualStep appends up to limit residual literals of lengths |t| to
// |t|+γ containing term to out, shortest first.
func (p *PUM) residualStep(out []Completion, term string, workers, limit int) []Completion {
	lo := len([]rune(term))
	for _, lit := range p.cache.Bins.SearchSubstring(term, lo, lo+p.cfg.Gamma, workers, limit) {
		out = append(out, Completion{Text: lit})
	}
	return out
}
