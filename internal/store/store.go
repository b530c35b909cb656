package store

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sapphire/internal/rdf"
)

// Store is a concurrency-safe in-memory triple store: one partition
// holding the SPO/POS/OSP indexes and the dedup set under one RWMutex,
// one mutation epoch, and the two-way term dictionary (append-only,
// with its own lock and lock-free resolution). The zero value is not
// usable; call New.
type Store struct {
	// dict interns terms to dense IDs; the indexes are over IDs.
	dict *dict

	mu sync.RWMutex

	// epoch counts committed mutations, bumped under the write lock
	// (before it releases) whenever the triple set actually changes.
	epoch atomic.Uint64

	// Index permutations over dictionary IDs. POS keeps its innermost
	// (subject) lists term-sorted; see index.sortedInner.
	spo index
	pos index
	osp index

	// present deduplicates the triples as packed ID triples.
	present map[[3]ID]struct{}

	size int
}

// New returns an empty store.
func New() *Store {
	return &Store{
		dict:    newDict(),
		spo:     newIndex(false),
		pos:     newIndex(true),
		osp:     newIndex(false),
		present: make(map[[3]ID]struct{}),
	}
}

// NewSharded returns New(); the shard count is ignored. It is kept only
// because the serving benchmark (benchmark/stack.go) calls it.
func NewSharded(int) *Store { return New() }

// Add inserts a triple. It returns an error if the triple violates RDF
// positional rules, and reports whether the triple was newly added. It
// is a one-triple batch commit: the same path as BulkLoader.Commit,
// whose small-tail merge inserts each new key into its sorted slice.
func (s *Store) Add(tr rdf.Triple) (bool, error) {
	if !tr.Valid() {
		return false, fmt.Errorf("store: invalid triple %s", tr)
	}
	si, pi, oi := s.dict.internTriple(tr)
	return s.commitBatch(s.dict.view(), [][3]ID{{si, pi, oi}}) == 1, nil
}

// Epoch returns the store's mutation epoch: a monotonic counter that
// advances whenever the triple set changes (Add of a new triple,
// BulkLoader.Commit with fresh triples), once per change. Two Epoch
// reads returning the same value bracket a window in which every query
// answer was computed against the same triple set, which is exactly the
// guarantee a result cache needs: keying cached entries by (query,
// epoch) makes invalidation free — a mutation moves the epoch and every
// stale entry simply stops being addressable.
//
// Epoch never takes the store lock. It may be observed to advance
// slightly before a writer releases the write lock; a reader that then
// evaluates a query blocks on the read lock until the writer is done,
// so the answer it computes is consistent with (or newer than) the
// epoch it read — never older.
func (s *Store) Epoch() uint64 {
	return s.epoch.Load()
}

// AddAll inserts all triples, stopping at the first invalid one (valid
// triples before it are still inserted) as one commit, so each index
// key slice is sorted once per batch instead of once per Add — use it
// (or a BulkLoader directly) for anything bigger than a handful of
// triples.
func (s *Store) AddAll(triples []rdf.Triple) error {
	l := NewBulkLoader(s)
	err := l.AddAll(triples)
	l.Commit()
	return err
}

// MustAdd inserts a triple and panics on invalid input. Intended for
// dataset construction in tests and generators where inputs are static.
//
//sapphire:allow testonly tests of sparql, endpoint, federation, pum, steiner and bootstrap build fixture stores with it
func (s *Store) MustAdd(tr rdf.Triple) {
	if _, err := s.Add(tr); err != nil {
		panic(err)
	}
}

// Len returns the number of distinct triples.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size
}

// Contains reports whether the exact triple is present.
func (s *Store) Contains(tr rdf.Triple) bool {
	si, pi, oi, ok := s.patternIDs(tr.S, tr.P, tr.O)
	if !ok || si == Wildcard || pi == Wildcard || oi == Wildcard {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok = s.present[[3]ID{si, pi, oi}]
	return ok
}

// Lookup returns the dictionary ID for a term without interning it. The
// second result is false when the term has never been interned. Note a
// term can be interned ahead of its triples: a BulkLoader stages terms
// before Commit, so Lookup may succeed for a term that matches nothing
// (MatchIDs/CountIDs correctly return empty/0 for it).
func (s *Store) Lookup(t rdf.Term) (ID, bool) {
	return s.dict.lookup(t)
}

// ResolveID returns the term for a dictionary ID. Unknown IDs (including
// Wildcard) resolve to the zero Term. It is lock-free (the ID→term
// chunks are published through an atomic spine pointer), so it is safe
// to call from inside Match/MatchIDs callbacks — a nested mutex
// acquisition there would deadlock against a queued writer.
func (s *Store) ResolveID(id ID) rdf.Term {
	return s.dict.termAt(id)
}

// Match streams every triple matching the pattern to fn. A zero Term in
// any position is a wildcard. Iteration stops early if fn returns false.
// The callback must not mutate the store.
func (s *Store) Match(sub, pred, obj rdf.Term, fn func(rdf.Triple) bool) {
	si, pi, oi, ok := s.patternIDs(sub, pred, obj)
	if !ok {
		return
	}
	// The view is captured inside the first callback, i.e. after
	// MatchIDs acquired the read lock: every triple visible under
	// those locks had its terms published before its insert completed,
	// so one view covers the whole iteration (terms are interned
	// strictly before their triples become visible). Bound positions
	// match only their own ID, so their term comes straight from the
	// pattern — only wildcard positions resolve per row.
	var tv termView
	sp, pp, op := &sub, &pred, &obj
	s.MatchIDs(si, pi, oi, func(a, b, c ID) bool {
		if tv.chunks == nil {
			tv = s.dict.view()
		}
		if si == Wildcard {
			sp = tv.atPtr(a)
		}
		if pi == Wildcard {
			pp = tv.atPtr(b)
		}
		if oi == Wildcard {
			op = tv.atPtr(c)
		}
		return fn(rdf.Triple{S: *sp, P: *pp, O: *op})
	})
}

// MatchIDs streams every matching triple as a dictionary-ID tuple. A
// Wildcard (zero) ID in any position matches every term. Iteration stops
// early if fn returns false. The callback runs under the read lock and
// must not mutate the store.
func (s *Store) MatchIDs(sub, pred, obj ID, fn func(s, p, o ID) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.matchLocked(sub, pred, obj, fn)
}

// PinRead acquires the read lock until the returned release is called,
// letting the holder scan reentrantly via MatchIDsPinned: the
// evaluator's streaming join issues the next pattern's scan from inside
// the current scan's callback, which must not re-acquire the lock (a
// queued writer would deadlock a nested read-lock acquisition). A
// pinned reader sees one consistent store state for its whole
// evaluation; writers wait for release, exactly as they wait out a
// single long wildcard scan. PinRead also starts a background rank-table
// build when the table has gone stale, since pinned evaluations are
// what run ORDER BY.
func (s *Store) PinRead() (release func()) {
	s.dict.maybeBuildRanks()
	s.mu.RLock()
	return s.mu.RUnlock
}

// MatchIDsPinned is MatchIDs under a PinRead session: no locking, safe
// to call from inside its own callbacks.
func (s *Store) MatchIDsPinned(sub, pred, obj ID, fn func(s, p, o ID) bool) {
	s.matchLocked(sub, pred, obj, fn)
}

// matchLocked walks the narrowest index for the pattern shape. Wildcard
// positions iterate the incrementally maintained term-sorted key
// slices, so no per-call sorting happens anywhere on this path. Caller
// must hold the read or write lock.
func (s *Store) matchLocked(sub, pred, obj ID, fn func(a, b, c ID) bool) {
	switch {
	case sub != Wildcard && pred != Wildcard && obj != Wildcard:
		if _, ok := s.present[[3]ID{sub, pred, obj}]; ok {
			fn(sub, pred, obj)
		}
	case sub != Wildcard && obj != Wildcard:
		// (S ? O): probe OSP for exactly the predicates linking the pair
		// instead of filtering the subject's whole out-edge set.
		e := s.osp.m[obj]
		if e == nil {
			return
		}
		for _, p := range e.get(sub) {
			if !fn(sub, p, obj) {
				return
			}
		}
	case sub != Wildcard:
		e := s.spo.m[sub]
		if e == nil {
			return
		}
		if pred != Wildcard {
			for _, o := range e.get(pred) {
				if !fn(sub, pred, o) {
					return
				}
			}
			return
		}
		for i, p := range e.keys {
			for _, o := range *e.lists[i] {
				if !fn(sub, p, o) {
					return
				}
			}
		}
	case pred != Wildcard:
		e := s.pos.m[pred]
		if e == nil {
			return
		}
		if obj != Wildcard {
			for _, sb := range e.get(obj) {
				if !fn(sb, pred, obj) {
					return
				}
			}
			return
		}
		for i, o := range e.keys {
			for _, sb := range *e.lists[i] {
				if !fn(sb, pred, o) {
					return
				}
			}
		}
	case obj != Wildcard:
		e := s.osp.m[obj]
		if e == nil {
			return
		}
		for i, sb := range e.keys {
			for _, p := range *e.lists[i] {
				if !fn(sb, p, obj) {
					return
				}
			}
		}
	default:
		// Full scan: iterate SPO deterministically.
		for _, sb := range s.spo.keys {
			e := s.spo.m[sb]
			for i, p := range e.keys {
				for _, o := range *e.lists[i] {
					if !fn(sb, p, o) {
						return
					}
				}
			}
		}
	}
}

// patternIDs maps a Term pattern to an ID pattern. ok is false when a
// non-wildcard term is absent from the dictionary, i.e. nothing matches.
func (s *Store) patternIDs(sub, pred, obj rdf.Term) (si, pi, oi ID, ok bool) {
	if !sub.IsZero() {
		if si, ok = s.dict.lookup(sub); !ok {
			return 0, 0, 0, false
		}
	}
	if !pred.IsZero() {
		if pi, ok = s.dict.lookup(pred); !ok {
			return 0, 0, 0, false
		}
	}
	if !obj.IsZero() {
		if oi, ok = s.dict.lookup(obj); !ok {
			return 0, 0, 0, false
		}
	}
	return si, pi, oi, true
}

// MatchSlice collects all triples matching the pattern.
func (s *Store) MatchSlice(sub, pred, obj rdf.Term) []rdf.Triple {
	var out []rdf.Triple
	s.Match(sub, pred, obj, func(tr rdf.Triple) bool {
		out = append(out, tr)
		return true
	})
	return out
}

// Count returns the number of triples matching the pattern without
// materializing them. Every pattern shape has full index coverage, so
// the answer is a constant number of map probes — no iteration.
func (s *Store) Count(sub, pred, obj rdf.Term) int {
	si, pi, oi, ok := s.patternIDs(sub, pred, obj)
	if !ok {
		return 0
	}
	return s.CountIDs(si, pi, oi)
}

// CountIDs is Count over dictionary IDs (Wildcard matches every term).
// It answers every shape from index metadata: the present set for fully
// bound patterns, innermost slice lengths for two-bound patterns, and
// per-entry totals for one-bound patterns.
func (s *Store) CountIDs(sub, pred, obj ID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	switch {
	case sub != Wildcard && pred != Wildcard && obj != Wildcard:
		if _, ok := s.present[[3]ID{sub, pred, obj}]; ok {
			return 1
		}
		return 0
	case sub != Wildcard && pred != Wildcard:
		if e := s.spo.m[sub]; e != nil {
			return len(e.get(pred))
		}
		return 0
	case sub != Wildcard && obj != Wildcard:
		if e := s.osp.m[obj]; e != nil {
			return len(e.get(sub))
		}
		return 0
	case sub != Wildcard:
		if e := s.spo.m[sub]; e != nil {
			return e.total
		}
		return 0
	case pred != Wildcard && obj != Wildcard:
		if e := s.pos.m[pred]; e != nil {
			return len(e.get(obj))
		}
		return 0
	case pred != Wildcard:
		if e := s.pos.m[pred]; e != nil {
			return e.total
		}
		return 0
	case obj != Wildcard:
		if e := s.osp.m[obj]; e != nil {
			return e.total
		}
		return 0
	default:
		return s.size
	}
}

// CardinalityEstimate returns the number of results for a pattern: the
// sparql planner's join-order estimate, the endpoint's admission check
// and the SPARQL-by-example baseline's seed choice. With the per-entry
// totals maintained on insert it is exact for every shape and O(1); it
// shares the implementation with Count.
func (s *Store) CardinalityEstimate(sub, pred, obj rdf.Term) int {
	return s.Count(sub, pred, obj)
}
