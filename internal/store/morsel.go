package store

// DefaultMorselSize is the batch size ScanMorselsPinned defaults to when
// size < 1: large enough that per-morsel dispatch overhead (one channel
// handoff, one slice allocation) amortizes over the join work a morsel
// seeds, small enough that a typical driving scan still splits into many
// more morsels than workers, which is what keeps the workers load-
// balanced when fan-out is skewed.
const DefaultMorselSize = 1024

// ScanMorselsPinned streams the matches of an ID pattern in exactly
// MatchIDs emission order, batched into morsels of up to size triples.
// It is the enumeration half of morsel-driven intra-query parallelism:
// the evaluator's coordinator calls it once per driving scan and hands
// each morsel to a join worker, and because the concatenation of the
// morsels is the serial scan order, per-morsel results reassembled in
// morsel order are byte-identical to a serial evaluation.
//
// Each callback receives a freshly allocated batch the callee may retain
// (morsels outlive the callback: they sit in worker queues). Returning
// false stops enumeration. Must be called under PinRead — it takes no
// locks of its own, exactly like MatchIDsPinned, so it is safe to run
// while worker goroutines scan through the same pin. It always reports
// true: the result exists for graphs that cannot batch scans (see
// sparql.IDGraph).
func (s *Store) ScanMorselsPinned(sub, pred, obj ID, size int, fn func(batch [][3]ID) bool) (supported bool) {
	if size < 1 {
		size = DefaultMorselSize
	}
	batch := make([][3]ID, 0, size)
	stopped := false
	s.matchIDsLocked(sub, pred, obj, func(a, b, c ID) bool {
		batch = append(batch, [3]ID{a, b, c})
		if len(batch) == size {
			if !fn(batch) {
				stopped = true
				return false
			}
			batch = make([][3]ID, 0, size)
		}
		return true
	})
	if !stopped && len(batch) > 0 {
		fn(batch)
	}
	return true
}
