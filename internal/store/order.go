package store

// OrderLabels exposes the dictionary's rank table (see rank.go) to the
// query evaluator: the returned function maps an interned ID to its
// uint64 order label, where nonzero labels compare exactly like the
// underlying terms and 0 means "unlabeled, fall back to a term compare".
// The label view is a point-in-time snapshot — terms interned after the
// call report 0 — and the call itself kicks the usual background rebuild
// when the labeled share has decayed, so steady ORDER BY traffic keeps
// the table fresh without ever blocking a query.
//
// exact reports whether label order equals the evaluator's ORDER BY
// comparator order for every pair of terms in the store: it is false as
// soon as any interned literal parses as a number, because SPARQL orders
// numeric literals by value ("9" < "10") while labels follow term order
// ("10" < "9"). Callers must not use labels for ordering when exact is
// false.
//
// label is nil when no table has been built yet (small stores below the
// rank floor, or a fresh store before its first background build).
func (s *Store) OrderLabels() (label func(id uint32) uint64, exact bool) {
	s.dict.maybeBuildRanks()
	exact = !s.dict.numericLits.Load()
	rt := s.dict.ranks.Load()
	if rt == nil {
		return nil, exact
	}
	return rt.label, exact
}

// BuildOrderLabels builds and publishes a rank table synchronously,
// regardless of the background trigger's size floor. Benchmarks and
// tests use it to measure the label-driven top-k path deterministically;
// production traffic relies on the background rebuild instead.
//
//sapphire:allow testonly sparql and federation tests build the rank table synchronously to pin the label-driven ORDER BY path
func (s *Store) BuildOrderLabels() { s.dict.buildRanks() }
