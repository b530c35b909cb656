package store

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sapphire/internal/rdf"
)

// defaultShards is the process-wide shard count Store.New uses, settable
// once at startup via SetDefaultShards (the serving commands wire their
// -shards flag to it before any store is built).
var defaultShards atomic.Int32

func init() {
	defaultShards.Store(int32(runtime.GOMAXPROCS(0)))
}

// DefaultShards returns the shard count New uses: runtime.GOMAXPROCS at
// process start unless overridden with SetDefaultShards.
func DefaultShards() int {
	return int(defaultShards.Load())
}

// SetDefaultShards overrides the shard count New uses for stores created
// afterwards. n < 1 is clamped to 1. Intended for startup flag wiring;
// existing stores are unaffected.
func SetDefaultShards(n int) {
	if n < 1 {
		n = 1
	}
	defaultShards.Store(int32(n))
}

// Store is a concurrency-safe in-memory triple store, horizontally
// partitioned into shards keyed by a hash of the subject's dictionary
// ID. Each shard owns its own SPO/POS/OSP indexes, RWMutex, and
// mutation epoch; the two-way term dictionary is shared (it is
// append-only, with lock-free resolution). Subject-bound operations
// touch exactly one shard; wildcard-subject operations fan out across
// shards and merge in term-sorted order, preserving the deterministic
// iteration contract of the unsharded store. The zero value is not
// usable; call New or NewSharded.
type Store struct {
	// dict interns terms to dense IDs; all shard indexes are over IDs.
	dict   *dict
	shards []*shard

	// mergeScratches recycles the slices and loser trees the
	// cross-shard wildcard fan-outs use, so a wildcard Match allocates
	// nothing in steady state.
	mergeScratches sync.Pool
}

// scratch checks a mergeScratch out of the pool, reset for tv/rt.
func (s *Store) scratch(tv termView, rt *rankTable) *mergeScratch {
	sc, _ := s.mergeScratches.Get().(*mergeScratch)
	if sc == nil {
		sc = &mergeScratch{}
	}
	sc.reset(tv, rt)
	return sc
}

// New returns an empty store with DefaultShards shards.
func New() *Store {
	return NewSharded(DefaultShards())
}

// NewSharded returns an empty store with exactly n shards (n < 1 is
// clamped to 1) and DefaultDictShards dictionary shards. A 1-shard
// store behaves observationally like the pre-sharding single-store
// implementation, including strict all-or-nothing visibility of
// BulkLoader commits; with more shards a commit publishes shard by
// shard, so a concurrent reader may observe a prefix of a batch (each
// individual shard is still all-or-nothing).
func NewSharded(n int) *Store {
	return NewShardedDict(n, DefaultDictShards)
}

// NewShardedDict is NewSharded with an explicit term-dictionary shard
// count (rounded up to a power of two, clamped to [1, 256]; values < 1
// select DefaultDictShards). Dictionary sharding bounds interning lock
// contention only — observable behavior is identical across any
// (shards, dictShards) combination.
func NewShardedDict(n, dictShards int) *Store {
	if n < 1 {
		n = 1
	}
	s := &Store{dict: newDict(dictShards), shards: make([]*shard, n)}
	for i := range s.shards {
		s.shards[i] = newShard()
	}
	return s
}

// Shards returns the number of shards the store was built with.
//
//sapphire:allow testonly internal/store/persist/db_test.go checks that Options.Shards reaches the recovered store
func (s *Store) Shards() int { return len(s.shards) }

// shardFor routes a subject ID to its owning shard. The multiplicative
// hash decorrelates shard choice from the dense first-seen ID sequence,
// so subjects interned in bursts (a sorted bulk load) still spread.
func (s *Store) shardFor(si ID) *shard {
	return s.shards[s.shardIndex(si)]
}

func (s *Store) shardIndex(si ID) int {
	if len(s.shards) == 1 {
		return 0
	}
	h := (uint64(si) * 0x9E3779B97F4A7C15) >> 32
	return int(h % uint64(len(s.shards)))
}

// rlockAll acquires every shard's read lock in shard order; runlockAll
// releases them. Multi-shard readers hold all shard locks for the
// duration of the fan-out so a scan observes each shard at a single
// point in time. Writers only ever hold one shard lock at a time, so
// the fixed acquisition order cannot deadlock.
func (s *Store) rlockAll() {
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
}

func (s *Store) runlockAll() {
	for _, sh := range s.shards {
		sh.mu.RUnlock()
	}
}

// Add inserts a triple. It returns an error if the triple violates RDF
// positional rules, and reports whether the triple was newly added.
func (s *Store) Add(tr rdf.Triple) (bool, error) {
	if !tr.Valid() {
		return false, fmt.Errorf("store: invalid triple %s", tr)
	}
	si, pi, oi := s.dict.internTriple(tr)
	sh := s.shardFor(si)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.present[[3]ID{si, pi, oi}]; dup {
		return false, nil
	}
	sh.addLocked(s.dict.view(), si, pi, oi)
	return true, nil
}

// Epoch returns the store's mutation epoch: a monotonic counter that
// advances whenever the triple set changes (Add of a new triple,
// BulkLoader.Commit with fresh triples). It is the sum of the per-shard
// epochs, so it moves if and only if some shard's triple set changed.
// Two Epoch reads returning the same value bracket a window in which
// every query answer was computed against the same triple set, which is
// exactly the guarantee a result cache needs: keying cached entries by
// (query, epoch) makes invalidation free — a mutation moves the epoch
// and every stale entry simply stops being addressable.
//
// Epoch never takes a shard lock. It may be observed to advance
// slightly before a writer releases its shard's write lock; a reader
// that then evaluates a query blocks on that shard's read lock until
// the writer is done, so the answer it computes is consistent with (or
// newer than) the epoch it read — never older.
//
// The sum is read shard by shard, not atomically, so under concurrent
// writes two distinct triple-set states can yield the same sum (bump A
// then bump B passes through sums E and E+1, while a torn reader mixing
// old-A with new-B also lands on E+... a colliding value). This does
// not weaken the cache contract: every per-shard counter is monotone
// and the shards are read at increasing times, so if a cached entry's
// state S sums to the value a reader computed, S must have been the
// current state at some instant inside that reader's read window —
// were S already superseded before the window, every later per-shard
// read would be ≥ S's vector with at least one strictly greater (sum
// too large); were S not yet reached, at least one strictly smaller
// (sum too small). Serving S is therefore exactly as linearizable as
// the old store-global counter, which also named one instant within
// the reader's window.
func (s *Store) Epoch() uint64 {
	var e uint64
	for _, sh := range s.shards {
		e += sh.epoch.Load()
	}
	return e
}

// AddAll inserts all triples, stopping at the first invalid one (valid
// triples before it are still inserted). It routes through the staged
// bulk-load path, so each index key slice is sorted once per batch
// instead of insertion-sorted per new key — use it (or a BulkLoader
// directly) for anything bigger than a handful of triples.
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
	s.rlockAll()
	defer s.runlockAll()
	n := 0
	for _, sh := range s.shards {
		n += sh.size
	}
	return n
}

// Contains reports whether the exact triple is present.
func (s *Store) Contains(tr rdf.Triple) bool {
	si, pi, oi, ok := s.patternIDs(tr.S, tr.P, tr.O)
	if !ok || si == Wildcard || pi == Wildcard || oi == Wildcard {
		return false
	}
	sh := s.shardFor(si)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok = sh.present[[3]ID{si, pi, oi}]
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
	// MatchIDs acquired the shard lock(s): every triple visible under
	// those locks had its terms published before its insert completed,
	// so one view covers the whole iteration (terms are interned
	// strictly before their triples become visible). Bound positions
	// match only their own ID, so their term comes straight from the
	// pattern — only wildcard positions resolve per row. The two
	// hottest wildcard-subject shapes get branch-free callbacks; the
	// generic form selects per-field source pointers.
	var tv termView
	switch {
	case si == Wildcard && pi != Wildcard && oi == Wildcard:
		// (?s P ?o): the POS sweep, the cross-shard merge workload.
		s.MatchIDs(si, pi, oi, func(a, _, c ID) bool {
			if tv.chunks == nil {
				tv = s.dict.view()
			}
			return fn(rdf.Triple{S: *tv.atPtr(a), P: pred, O: *tv.atPtr(c)})
		})
	case si == Wildcard && pi != Wildcard && oi != Wildcard:
		// (?s P O): subject runs for one predicate/object pair.
		s.MatchIDs(si, pi, oi, func(a, _, _ ID) bool {
			if tv.chunks == nil {
				tv = s.dict.view()
			}
			return fn(rdf.Triple{S: *tv.atPtr(a), P: pred, O: obj})
		})
	default:
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
}

// MatchIDs streams every matching triple as a dictionary-ID tuple. A
// Wildcard (zero) ID in any position matches every term. Iteration stops
// early if fn returns false. The callback must not mutate the store.
//
// Subject-bound patterns lock and walk exactly one shard. Wildcard-
// subject patterns take every shard's read lock and merge the per-shard
// streams in term-sorted order, so iteration order is identical to a
// single-shard store's regardless of shard count.
func (s *Store) MatchIDs(sub, pred, obj ID, fn func(s, p, o ID) bool) {
	if sub != Wildcard {
		sh := s.shardFor(sub)
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		sh.matchLocked(sub, pred, obj, fn)
		return
	}
	if len(s.shards) == 1 {
		sh := s.shards[0]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		sh.matchLocked(sub, pred, obj, fn)
		return
	}
	s.dict.maybeBuildRanks()
	s.rlockAll()
	defer s.runlockAll()
	s.matchIDsLocked(sub, pred, obj, fn)
}

// matchIDsLocked is MatchIDs with every shard read lock already held.
func (s *Store) matchIDsLocked(sub, pred, obj ID, fn func(s, p, o ID) bool) {
	if sub != Wildcard {
		s.shardFor(sub).matchLocked(sub, pred, obj, fn)
		return
	}
	if len(s.shards) == 1 {
		s.shards[0].matchLocked(sub, pred, obj, fn)
		return
	}
	switch {
	case pred != Wildcard:
		s.matchPredBoundLocked(pred, obj, fn)
	case obj != Wildcard:
		s.matchObjBoundLocked(obj, fn)
	default:
		s.matchScanLocked(fn)
	}
}

// PinRead acquires every shard's read lock until the returned release is
// called, letting the holder scan reentrantly via MatchIDsPinned: the
// evaluator's streaming join issues the next pattern's scan from inside
// the current scan's callback, which must not re-acquire locks (a queued
// writer would deadlock a nested read-lock acquisition). A pinned reader
// sees one consistent store state for its whole evaluation; writers wait
// for release, exactly as they wait out a single long wildcard scan.
func (s *Store) PinRead() (release func()) {
	s.dict.maybeBuildRanks()
	s.rlockAll()
	return s.runlockAll
}

// MatchIDsPinned is MatchIDs under a PinRead session: no locking, safe
// to call from inside its own callbacks.
func (s *Store) MatchIDsPinned(sub, pred, obj ID, fn func(s, p, o ID) bool) {
	s.matchIDsLocked(sub, pred, obj, fn)
}

// matchPredBoundLocked handles (?s P O) and (?s P ?o) across shards.
// All shard read locks must be held.
func (s *Store) matchPredBoundLocked(pred, obj ID, fn func(a, b, c ID) bool) {
	sc := s.scratch(s.dict.view(), s.dict.ranks.Load())
	defer s.mergeScratches.Put(sc)
	for _, sh := range s.shards {
		if e := sh.pos.m[pred]; e != nil {
			sc.entries = append(sc.entries, e)
		}
	}
	if len(sc.entries) == 0 {
		return
	}
	if obj != Wildcard {
		// Subjects for one (P, O) pair: disjoint term-sorted runs, one
		// per shard (POS keeps innermost lists term-sorted).
		for _, e := range sc.entries {
			if subs := e.get(obj); len(subs) > 0 {
				sc.inner = append(sc.inner, subs)
			}
		}
		sc.outer.merge(sc.inner, func(sb ID, _ []int) bool {
			return fn(sb, pred, obj)
		})
		return
	}
	// Objects merge across shards in term order; the same object can
	// appear in several shards (its subjects are spread), so each
	// distinct object merges the contributing shards' subject runs. The
	// subject lists come from the merge cursors (posAt) against the
	// key-parallel list slices — no per-object map probe — and the inner
	// merger is reused across objects, its loser tree spinning up only
	// when an object really spans shards.
	for _, e := range sc.entries {
		sc.keyLists = append(sc.keyLists, e.keys)
		sc.lists = append(sc.lists, e.lists)
	}
	outer, lists := &sc.outer, sc.lists
	outer.merge(sc.keyLists, func(o ID, which []int) bool {
		if len(which) == 1 {
			w := which[0]
			for _, sb := range *lists[w][outer.posAt(w)] {
				if !fn(sb, pred, o) {
					return false
				}
			}
			return true
		}
		sc.inner = sc.inner[:0]
		for _, w := range which {
			sc.inner = append(sc.inner, *lists[w][outer.posAt(w)])
		}
		return sc.innerM.merge(sc.inner, func(sb ID, _ []int) bool {
			return fn(sb, pred, o)
		})
	})
}

// matchObjBoundLocked handles (?s ?p O) across shards: per-shard OSP
// subject streams are disjoint (a subject lives in one shard) and term-
// sorted, so they merge directly; each subject's predicate list comes
// whole from its shard. All shard read locks must be held.
func (s *Store) matchObjBoundLocked(obj ID, fn func(a, b, c ID) bool) {
	sc := s.scratch(s.dict.view(), s.dict.ranks.Load())
	defer s.mergeScratches.Put(sc)
	for _, sh := range s.shards {
		if e := sh.osp.m[obj]; e != nil {
			sc.entries = append(sc.entries, e)
		}
	}
	if len(sc.entries) == 0 {
		return
	}
	for _, e := range sc.entries {
		sc.keyLists = append(sc.keyLists, e.keys)
		sc.lists = append(sc.lists, e.lists)
	}
	outer, lists := &sc.outer, sc.lists
	outer.merge(sc.keyLists, func(sb ID, which []int) bool {
		w := which[0]
		for _, p := range *lists[w][outer.posAt(w)] {
			if !fn(sb, p, obj) {
				return false
			}
		}
		return true
	})
}

// matchScanLocked handles the full (?s ?p ?o) scan across shards:
// subjects are disjoint term-sorted streams, and each subject's whole
// out-edge set lives in its shard. All shard read locks must be held.
func (s *Store) matchScanLocked(fn func(a, b, c ID) bool) {
	sc := s.scratch(s.dict.view(), s.dict.ranks.Load())
	defer s.mergeScratches.Put(sc)
	for _, sh := range s.shards {
		sc.keyLists = append(sc.keyLists, sh.spo.keys)
	}
	sc.outer.merge(sc.keyLists, func(sb ID, which []int) bool {
		return s.shards[which[0]].scanSubjectLocked(sb, fn)
	})
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
// the answer is a constant number of map probes per shard — no
// iteration.
func (s *Store) Count(sub, pred, obj rdf.Term) int {
	si, pi, oi, ok := s.patternIDs(sub, pred, obj)
	if !ok {
		return 0
	}
	return s.CountIDs(si, pi, oi)
}

// CountIDs is Count over dictionary IDs (Wildcard matches every term).
func (s *Store) CountIDs(sub, pred, obj ID) int {
	if sub != Wildcard {
		sh := s.shardFor(sub)
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.countLocked(sub, pred, obj)
	}
	s.rlockAll()
	defer s.runlockAll()
	n := 0
	for _, sh := range s.shards {
		n += sh.countLocked(sub, pred, obj)
	}
	return n
}

// CardinalityEstimate returns the number of results for a pattern, used
// by the endpoint cost model and by the federated source selection. With
// the per-entry totals maintained on insert it is exact for every shape
// and O(shards); it shares the implementation with Count.
func (s *Store) CardinalityEstimate(sub, pred, obj rdf.Term) int {
	return s.Count(sub, pred, obj)
}
