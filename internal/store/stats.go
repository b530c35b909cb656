package store

import (
	"sort"

	"sapphire/internal/rdf"
)

// PredicateFrequency is one row of the Q1/Q4 aggregates: a predicate and
// how many triples (or literal-valued triples) use it.
type PredicateFrequency struct {
	Predicate rdf.Term
	Count     int
}

// PredicateFrequencies returns all predicates ordered by descending triple
// count (ties broken by term order), mirroring initialization query Q1.
// Per-predicate totals are maintained on insert, so this is
// O(#predicates).
func (s *Store) PredicateFrequencies() []PredicateFrequency {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tv := s.dict.view()
	out := make([]PredicateFrequency, 0, len(s.pos.m))
	for p, e := range s.pos.m {
		out = append(out, PredicateFrequency{Predicate: tv.at(p), Count: e.total})
	}
	sortFreq(out)
	return out
}

func sortFreq(fs []PredicateFrequency) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Count != fs[j].Count {
			return fs[i].Count > fs[j].Count
		}
		return fs[i].Predicate.Compare(fs[j].Predicate) < 0
	})
}
