package bootstrap

import "sapphire/internal/rdf"

// MergeCaches combines per-endpoint caches into one cache spanning all
// registered endpoints, so a single PUM can complete and suggest across
// the whole federation. The suffix tree and bins are rebuilt over the
// union of indexed strings; stats are summed.
func MergeCaches(caches ...*Cache) *Cache {
	if len(caches) == 1 {
		return caches[0]
	}
	merged := &Cache{
		Endpoint:    "federation",
		literalTerm: make(map[string]rdf.Term),
	}
	var significant []string
	seenPred := make(map[rdf.Term]bool)
	for _, c := range caches {
		if c == nil {
			continue
		}
		for _, p := range c.Predicates {
			if !seenPred[p] {
				seenPred[p] = true
				merged.Predicates = append(merged.Predicates, p)
			}
		}
		for lex, t := range c.literalTerm {
			if _, dup := merged.literalTerm[lex]; !dup {
				merged.literalTerm[lex] = t
			}
		}
		significant = append(significant, c.Bins.Tree()...)
		merged.Stats.QueriesIssued += c.Stats.QueriesIssued
		merged.Stats.Timeouts += c.Stats.Timeouts
		merged.Stats.LiteralQueries += c.Stats.LiteralQueries
		merged.Stats.SignificanceQueries += c.Stats.SignificanceQueries
		merged.Stats.UsedHierarchy = merged.Stats.UsedHierarchy || c.Stats.UsedHierarchy
		merged.Stats.Duration += c.Stats.Duration
	}
	merged.index(significant)
	merged.Stats.PredicateCount = len(merged.Predicates)
	merged.Stats.LiteralCount = len(merged.literalTerm)
	merged.Stats.SignificantCount = len(merged.Bins.Tree())
	return merged
}
