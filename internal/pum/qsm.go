package pum

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"sapphire/internal/bins"
	"sapphire/internal/bootstrap"
	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
)

// SuggestionKind classifies a QSM suggestion.
type SuggestionKind uint8

const (
	// AltPredicate replaces one predicate with a similar one.
	AltPredicate SuggestionKind = iota
	// AltLiteral replaces one literal with a similar one.
	AltLiteral
	// Relaxation rewrites the query structure via the Steiner tree.
	Relaxation
)

func (k SuggestionKind) String() string {
	switch k {
	case AltPredicate:
		return "alternative-predicate"
	case AltLiteral:
		return "alternative-literal"
	default:
		return "relaxed-structure"
	}
}

// Suggestion is one QSM proposal: a complete, executable query plus the
// single change it makes, its similarity score, and the prefetched
// answer count (the UI shows "did you mean X instead of Y? There are N
// answers available").
type Suggestion struct {
	Kind SuggestionKind
	// Query is the full alternative query.
	Query *sparql.Query
	// TripleIndex is the index of the changed pattern (−1 for
	// relaxation, which rewrites the whole structure).
	TripleIndex int
	// Old and New are the replaced and replacement terms (display form
	// for predicates, lexical form for literals).
	Old, New string
	// Score is the similarity score that ranked this alternative.
	Score float64
	// Answers is the prefetched result count.
	Answers int
	// Prefetched holds the results so accepting the suggestion needs no
	// re-execution.
	Prefetched *sparql.Results
}

// Message renders the one-change-at-a-time UI text of Section 4.
func (s Suggestion) Message() string {
	if s.Kind == Relaxation {
		return fmt.Sprintf("Consider a relaxed query structure connecting your literals. There are %d answers available.", s.Answers)
	}
	return fmt.Sprintf("Did you mean %q instead of %q? There are %d answers available.", s.New, s.Old, s.Answers)
}

// Suggest implements the QSM: Algorithm 2 (alternative terms) followed by
// structure relaxation (Section 6.2.2) when the query has literals. The
// returned suggestions all have at least one answer, top K/2 per
// direction, sorted by answers desc then score desc.
func (p *PUM) Suggest(ctx context.Context, q *sparql.Query) ([]Suggestion, error) {
	predAlts := p.predicateAlternatives(q)
	litAlts := p.literalAlternatives(q)

	// Build candidate queries: one change each (Algorithm 2 lines 15–22).
	var candidates []Suggestion
	candidates = append(candidates, predAlts...)
	candidates = append(candidates, litAlts...)

	// Execute candidates and keep those with answers (TopQueriesWithAnswer).
	kept := p.prefetch(ctx, candidates)

	half := p.cfg.K / 2
	var out []Suggestion
	out = append(out, topByKind(kept, AltPredicate, half)...)
	out = append(out, topByKind(kept, AltLiteral, half)...)

	// Structure relaxation for queries with literals.
	if relax, err := p.Relax(ctx, q, litAlts); err == nil && relax != nil {
		out = append(out, *relax)
	}
	return out, nil
}

// PredAlt is a ranked alternative predicate.
type PredAlt struct {
	Pred  rdf.Term
	Score float64
}

// AlternativePredicates finds cached predicates similar (≥ θ) to the
// given display name or any of its lexicon verbalizations — Algorithm 2
// lines 3–7 without query construction. Results are ranked by score;
// ties keep the cache's most-frequent-first order, mirroring Sapphire's
// frequency prioritization.
func (p *PUM) AlternativePredicates(display string) []PredAlt {
	lexica := p.lex.Lexica(display)
	best := make(map[rdf.Term]float64)
	for _, verb := range lexica {
		for i, cand := range p.cache.Predicates {
			d := p.predDisplay[i]
			if d == display {
				continue
			}
			if s := p.score(verb, d); s >= p.cfg.Theta && s > best[cand] {
				best[cand] = s
			}
		}
	}
	ranked := make([]PredAlt, 0, len(best))
	for _, cand := range p.cache.Predicates { // preserves frequency order
		if s, ok := best[cand]; ok {
			ranked = append(ranked, PredAlt{Pred: cand, Score: s})
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Score > ranked[j].Score })
	return ranked
}

// predicateAlternatives finds replacement predicates for every bound
// predicate in the query (Algorithm 2 lines 3–7).
func (p *PUM) predicateAlternatives(q *sparql.Query) []Suggestion {
	var out []Suggestion
	for ti, pat := range q.Where {
		if pat.P.IsVar() {
			continue
		}
		cur := pat.P.Term
		curDisplay := displayOf(cur)
		kept := 0
		for _, r := range p.AlternativePredicates(curDisplay) {
			if r.Pred == cur {
				continue
			}
			if kept == p.selectable() {
				break
			}
			kept++
			nq := q.Clone()
			nq.Where[ti].P = sparql.NewTermNode(r.Pred)
			out = append(out, Suggestion{
				Kind:        AltPredicate,
				Query:       nq,
				TripleIndex: ti,
				Old:         curDisplay,
				New:         displayOf(r.Pred),
				Score:       r.Score,
			})
		}
	}
	return out
}

// selectable is how many alternatives of one triple pattern can be
// used, so only that many are built into queries. selectCandidates
// stable-sorts the candidates by score and keeps the first
// MaxCandidates of each kind, and a pattern's alternatives arrive best
// first, so one ranked past MaxCandidates among its own pattern's is
// never selected; Relax's seedGroups reads only a pattern's top K−1
// literal alternatives.
func (p *PUM) selectable() int { return max(p.cfg.MaxCandidates, p.cfg.K-1) }

// literalAlternatives finds replacement literals for every literal object
// in the query (Algorithm 2 line 9).
func (p *PUM) literalAlternatives(q *sparql.Query) []Suggestion {
	var out []Suggestion
	for ti, pat := range q.Where {
		if pat.O.IsVar() || !pat.O.Term.IsLiteral() {
			continue
		}
		cur := pat.O.Term
		kept := 0
		for _, m := range p.similarLiterals(cur.Value) {
			if m.Literal == cur.Value {
				continue
			}
			if kept == p.selectable() {
				break
			}
			kept++
			term, ok := p.cache.LiteralTerm(m.Literal)
			if !ok {
				term = rdf.NewLangLiteral(m.Literal, "en")
			}
			nq := q.Clone()
			nq.Where[ti].O = sparql.NewTermNode(term)
			out = append(out, Suggestion{
				Kind:        AltLiteral,
				Query:       nq,
				TripleIndex: ti,
				Old:         cur.Value,
				New:         m.Literal,
				Score:       m.Score,
			})
		}
	}
	return out
}

// similarLiterals returns the cached literals of length [|l|−α, |l|+β],
// tree and residual tier alike, at least θ similar to l, best first, ties
// by literal.
func (p *PUM) similarLiterals(l string) []bins.SimilarityMatch {
	n := len([]rune(l))
	return p.cache.Bins.SearchSimilar(l, n-p.cfg.Alpha, n+p.cfg.Beta, p.cfg.Workers, p.cfg.Theta, p.cfg.Measure)
}

// prefetch executes candidate queries (capped at MaxCandidates per kind,
// best score first) and keeps the ones that return answers, storing the
// results for instantaneous acceptance. Execution is concurrent — the
// paper runs suggested queries "in the background using the Federated
// Query Processor" so accepting one displays answers immediately — but
// the returned order is deterministic (candidate order).
func (p *PUM) prefetch(ctx context.Context, candidates []Suggestion) []Suggestion {
	selected := p.selectCandidates(candidates)
	workers := p.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	results := make([]*sparql.Results, len(selected))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range selected {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := p.fed.Eval(ctx, selected[i].Query)
			if err == nil && !EmptyResults(res) {
				results[i] = res
			}
		}(i)
	}
	wg.Wait()
	var kept []Suggestion
	for i, c := range selected {
		if results[i] == nil {
			continue
		}
		c.Answers = len(results[i].Rows)
		c.Prefetched = results[i]
		kept = append(kept, c)
	}
	return kept
}

// selectCandidates orders candidates best score first, stably, and
// keeps the first MaxCandidates of each kind.
func (p *PUM) selectCandidates(candidates []Suggestion) []Suggestion {
	sort.SliceStable(candidates, func(i, j int) bool {
		return candidates[i].Score > candidates[j].Score
	})
	counts := make(map[SuggestionKind]int)
	var selected []Suggestion
	for _, c := range candidates {
		if counts[c.Kind] >= p.cfg.MaxCandidates {
			continue
		}
		counts[c.Kind]++
		selected = append(selected, c)
	}
	return selected
}

// displayOf is the UI rendering of a predicate IRI.
func displayOf(p rdf.Term) string { return bootstrap.DisplayName(p) }

// EmptyResults reports whether a result set carries no information: no
// rows, or a lone aggregate row whose value is zero (COUNT over an empty
// pattern), which the UI treats the same as "no answers found".
func EmptyResults(res *sparql.Results) bool {
	if res == nil || len(res.Rows) == 0 {
		return true
	}
	if len(res.Rows) == 1 && len(res.Vars) == 1 {
		if t, ok := res.Rows[0][res.Vars[0]]; ok && t.Value == "0" && t.Datatype != "" {
			return true
		}
	}
	return false
}

func topByKind(ss []Suggestion, kind SuggestionKind, n int) []Suggestion {
	var of []Suggestion
	for _, s := range ss {
		if s.Kind == kind {
			of = append(of, s)
		}
	}
	sort.SliceStable(of, func(i, j int) bool {
		if of[i].Answers != of[j].Answers {
			return of[i].Answers > of[j].Answers
		}
		return of[i].Score > of[j].Score
	})
	if len(of) > n {
		of = of[:n]
	}
	return of
}
