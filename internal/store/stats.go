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
// Per-predicate totals are maintained per shard on insert, so this is
// O(#predicates × #shards).
func (s *Store) PredicateFrequencies() []PredicateFrequency {
	s.rlockAll()
	defer s.runlockAll()
	tv := s.dict.view()
	totals := make(map[ID]int)
	for _, sh := range s.shards {
		for p, e := range sh.pos.m {
			totals[p] += e.total
		}
	}
	out := make([]PredicateFrequency, 0, len(totals))
	for p, n := range totals {
		out = append(out, PredicateFrequency{Predicate: tv.at(p), Count: n})
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
