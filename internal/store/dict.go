package store

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"sapphire/internal/rdf"
)

// ID is a dense dictionary identifier for an interned rdf.Term. IDs are
// allocated from one 32-bit space in first-seen order; the zero ID is
// reserved as the Wildcard sentinel so that ID-level pattern matching
// mirrors the zero-Term wildcard convention of the Term-level API. The
// only holes in the live ID set are the unreferenced terms a snapshot
// restore compacted away. Nothing in the store depends on density;
// iteration order everywhere is term order, never ID order.
//
// ID is an alias (not a defined type) so callers outside this package can
// use plain uint32 values without conversions — the sparql evaluator's
// IDGraph fast path relies on that.
type ID = uint32

// Wildcard is the ID-level wildcard: MatchIDs and CountIDs treat it the
// way Match treats a zero rdf.Term.
const Wildcard ID = 0

// chunkShift/chunkSize/chunkMask describe the ID→term spine geometry:
// terms live in fixed-size chunks so the mapping can grow without ever
// moving an element, and lock-free readers index whatever spine
// snapshot they hold.
const (
	chunkShift = 12
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// termChunk is one fixed-size block of the ID→term mapping. Chunks are
// allocated zeroed and their slots written exactly once, under the
// dictionary lock, before the ID becomes discoverable.
type termChunk [chunkSize]rdf.Term

// dict is the two-way term dictionary: one term→ID map under one lock,
// and an ID→term chunked spine published through an atomic pointer, so
// resolution never takes a lock (see termView). That lets evaluator
// callbacks running inside a MatchIDs read-lock resolve IDs without
// re-acquiring any mutex, and lets index maintenance compare terms
// without racing concurrent interning.
//
// Publication contract: a term's chunk slot is fully written, under mu,
// before the ID is stored in the intern map or the watermark moves past
// it — i.e. before any caller can learn the ID. Every path that hands
// an ID to a reader does so through some synchronizing edge (mu itself
// for Lookup, the store lock for IDs read out of an index, the atomic
// watermark for rank builds), so by the time a reader resolves an ID,
// the spine coverage and the slot contents it needs are visible. Chunk
// slots are never rewritten, and spine growth copies only the chunk
// pointers (never element data).
type dict struct {
	mu  sync.RWMutex
	ids map[rdf.Term]ID

	// next is the ID allocator watermark: the lowest ID not yet
	// assigned. Starts at 1; ID 0 backs Wildcard. Advanced under mu
	// after the new term's slot is written, read lock-free.
	next atomic.Uint32

	// terms counts assigned IDs — the watermark minus the holes a
	// snapshot restore's compaction left. The rank-build trigger
	// compares against this, not the watermark, so holes (which no
	// build can label) never trigger futile rebuilds.
	terms atomic.Uint32

	// spine is the published chunk-pointer table. Grown (copied) under
	// mu; readers load it atomically and index it without locks.
	spine atomic.Pointer[[]*termChunk]

	// ranks is the published per-ID order statistic (see rankTable):
	// rebuilt in the background when the labeled share of the ID space
	// halves, consumed lock-free by ORDER BY top-k and the snapshot
	// writer. rankMu serializes builds; rankOrder is the previous
	// build's term-sorted ID list (owned by the rank build, guarded by
	// rankMu); labeled counts it.
	rankMu        sync.Mutex
	ranks         atomic.Pointer[rankTable]
	ranksBuilding atomic.Bool
	labeled       atomic.Uint32
	rankOrder     []ID

	// base is the term-sorted ID list a snapshot restore installs
	// instead of populating the intern map (see dict.restore).
	// Immutable once set, and set only before the store is published,
	// so it is read without locks. Empty for stores that were never
	// restored.
	base []ID

	// numericLits is set (and never cleared) the first time a literal
	// whose lexical form parses as a float is interned. The evaluator's
	// ORDER BY comparator ranks such literals numerically, which can
	// disagree with plain term order — so the rank-label top-k fast path
	// is only exact while this stays false. See Store.OrderLabels.
	numericLits atomic.Bool
}

func newDict() *dict {
	d := &dict{ids: make(map[rdf.Term]ID)}
	d.next.Store(1) // ID 0 is the Wildcard sentinel
	spine := []*termChunk{new(termChunk)}
	d.spine.Store(&spine)
	return d
}

// intern returns the ID for t, assigning the next ID on first sight.
// The hit path (predicates and types repeat on every triple) probes
// under the read lock first, so interning already-known terms never
// serializes concurrent writers.
func (d *dict) intern(t rdf.Term) ID {
	d.mu.RLock()
	id, ok := d.ids[t]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	id = d.internLocked(t)
	d.mu.Unlock()
	return id
}

// internTriple interns all three positions.
func (d *dict) internTriple(tr rdf.Triple) (si, pi, oi ID) {
	return d.intern(tr.S), d.intern(tr.P), d.intern(tr.O)
}

// internLocked assigns (or returns) t's ID. Caller must hold d.mu for
// writing. The term is written into its spine slot before the intern-map
// store and the watermark advance that make the ID discoverable — see
// the dict type comment for why that ordering makes lock-free
// resolution safe.
func (d *dict) internLocked(t rdf.Term) ID {
	if id, ok := d.ids[t]; ok {
		return id
	}
	if id, ok := d.baseLookup(&t); ok {
		// A restored term seen for the first time since the restore:
		// memoize it so subsequent interns hit the map's read-lock fast
		// path. Already counted in terms at restore time.
		d.ids[t] = id
		return id
	}
	id := d.next.Load()
	d.ensureCovers(id)
	spine := *d.spine.Load()
	spine[id>>chunkShift][id&chunkMask] = t
	d.ids[t] = id
	d.next.Store(id + 1)
	d.terms.Add(1)
	if !d.numericLits.Load() && isNumericLiteral(&t) {
		d.numericLits.Store(true)
	}
	return id
}

// isNumericLiteral reports whether t is a literal whose lexical value
// parses as a float — exactly the values the evaluator's ORDER BY
// comparator ranks numerically instead of by term order. The first-byte
// gate keeps ParseFloat off the intern hot path for ordinary strings
// ('i'/'I'/'n'/'N' are included because ParseFloat accepts "Inf",
// "infinity" and "NaN" spellings).
func isNumericLiteral(t *rdf.Term) bool {
	if t.Kind != rdf.KindLiteral || len(t.Value) == 0 {
		return false
	}
	switch c := t.Value[0]; {
	case c >= '0' && c <= '9', c == '+', c == '-', c == '.',
		c == 'i', c == 'I', c == 'n', c == 'N':
	default:
		return false
	}
	_, err := strconv.ParseFloat(t.Value, 64)
	return err == nil
}

// ensureCovers grows the published spine until the chunk holding id
// exists. Only chunk pointers are copied; chunk contents stay in place,
// so readers holding an older spine lose nothing. Caller must hold d.mu
// for writing (or own the dictionary exclusively, as restore does).
func (d *dict) ensureCovers(id ID) {
	cur := *d.spine.Load()
	want := int(id>>chunkShift) + 1
	if len(cur) >= want {
		return
	}
	next := make([]*termChunk, want)
	copy(next, cur)
	for i := len(cur); i < want; i++ {
		next[i] = new(termChunk)
	}
	d.spine.Store(&next)
}

// internAll appends the ID of every term in ts to ids, under one
// acquisition of the dictionary lock — the batched path BulkLoader
// stages through.
func (d *dict) internAll(ts []rdf.Term, ids []ID) []ID {
	d.mu.Lock()
	for _, t := range ts {
		ids = append(ids, d.internLocked(t))
	}
	d.mu.Unlock()
	return ids
}

// lookup returns the ID for t without interning. Terms carried over by
// a snapshot restore that have not been re-interned since live only in
// the base list; the map miss falls through to the binary search.
func (d *dict) lookup(t rdf.Term) (ID, bool) {
	d.mu.RLock()
	id, ok := d.ids[t]
	d.mu.RUnlock()
	if !ok {
		return d.baseLookup(&t)
	}
	return id, ok
}

// baseLookup binary-searches the restored term-sorted base for t,
// resolving candidate IDs through the spine. Lock-free: the base is
// immutable and every ID in it was published (spine slot written)
// before the store existed for callers. ~20 term compares on a restored
// million-term dictionary, and only for terms not yet re-interned —
// intern memoizes hits into the map.
func (d *dict) baseLookup(t *rdf.Term) (ID, bool) {
	if len(d.base) == 0 {
		return 0, false
	}
	tv := d.view()
	i := sort.Search(len(d.base), func(i int) bool {
		return tv.atPtr(d.base[i]).CompareTo(t) >= 0
	})
	if i < len(d.base) {
		if id := d.base[i]; tv.atPtr(id).CompareTo(t) == 0 {
			return id, true
		}
	}
	return 0, false
}

// view returns the current lock-free ID→term mapping. Any ID published
// before the view was taken (through any synchronizing edge) resolves
// correctly against it; unpublished or out-of-range IDs resolve to the
// zero Term.
func (d *dict) view() termView {
	return termView{chunks: *d.spine.Load()}
}

// termAt resolves one ID against the current spine without locking. Safe
// to call concurrently with interning and from within Match/MatchIDs
// callbacks.
func (d *dict) termAt(id ID) rdf.Term {
	return d.view().at(id)
}

// termView is a point-in-time handle on the ID→term mapping: an
// immutable snapshot of the chunk-pointer spine, chunked so the
// interner can write new terms without ever relocating slots a
// published view still points at.
type termView struct {
	chunks []*termChunk
}

// at resolves an ID. IDs beyond the view's coverage (never-published, or
// published after the view was taken without a synchronizing edge) and
// the Wildcard resolve to the zero Term.
func (v termView) at(id ID) rdf.Term {
	if ci := int(id >> chunkShift); ci < len(v.chunks) {
		return v.chunks[ci][id&chunkMask]
	}
	return rdf.Term{}
}

// zeroTerm backs atPtr's out-of-range result.
var zeroTerm rdf.Term

// atPtr resolves an ID to a pointer into its chunk slot, avoiding the
// 56-byte copy of at. Slots are written exactly once before their ID is
// published and never rewritten, so the pointee is immutable for any ID
// the caller legitimately holds. Callers must not write through it.
func (v termView) atPtr(id ID) *rdf.Term {
	if ci := int(id >> chunkShift); ci < len(v.chunks) {
		return &v.chunks[ci][id&chunkMask]
	}
	return &zeroTerm
}

// index is one permutation of the store's triple indexes (SPO, POS, or
// OSP): a level-one key → entry map plus the level-one keys maintained
// in term order, so wildcard iteration never sorts. Level one keeps the
// map probe per key (a level-one insert memmoves the keys slice, and a
// parallel pointer slice would triple the bytes every online Add
// shifts); level two instead pairs its keys with a parallel inner-list
// pointer slice, because that is the level the wildcard loops and the
// snapshot writer walk key-by-key.
//
// sortedInner additionally keeps the innermost ID lists term-sorted
// (the POS permutation sets it), so (?s P O) and (?s P ?o) stream
// their subjects in term order rather than arrival order. SPO and OSP
// leave their innermost lists in insertion order.
type index struct {
	m           map[ID]*entry
	keys        []ID // level-one keys, term-sorted
	sortedInner bool
}

// entry is one level-one slot of an index: level-two key → level-three
// ID list (boxed, so the map and the key-parallel lists slice share one
// stable location), the level-two keys in term order with the parallel
// list pointers, and the total number of triples underneath (giving
// O(1) per-key cardinalities).
type entry struct {
	m     map[ID]*[]ID
	keys  []ID    // level-two keys, term-sorted
	lists []*[]ID // lists[i] backs keys[i]
	total int
}

// get returns the inner ID list for level-two key b (nil when absent).
func (e *entry) get(b ID) []ID {
	if l := e.m[b]; l != nil {
		return *l
	}
	return nil
}

func newIndex(sortedInner bool) index {
	return index{m: make(map[ID]*entry), sortedInner: sortedInner}
}

// add records the (a, b, c) path in the index. The caller guarantees the
// triple is new (the store dedups via its present set), so c is appended
// (or, with sortedInner, insertion-sorted) unconditionally. Key slices
// and their parallel value slices are maintained sorted by term order
// with a binary-search insertion: Add is the cold path, Match the hot
// one. tv is a dictionary view covering every ID involved.
func (x *index) add(tv termView, a, b, c ID) {
	e := x.m[a]
	if e == nil {
		e = &entry{m: make(map[ID]*[]ID)}
		x.m[a] = e
		x.keys = insertSorted(tv, x.keys, a)
	}
	lst := e.m[b]
	if lst == nil {
		lst = new([]ID)
		e.m[b] = lst
		i := searchTerm(tv, e.keys, b)
		e.keys = insertAt(e.keys, i, b)
		e.lists = insertAt(e.lists, i, lst)
	}
	if x.sortedInner {
		*lst = insertSorted(tv, *lst, c)
	} else {
		*lst = append(*lst, c)
	}
	e.total++
}

// searchTerm returns the term-order insertion position for id in keys.
func searchTerm(tv termView, keys []ID, id ID) int {
	t := tv.atPtr(id)
	return sort.Search(len(keys), func(i int) bool {
		return tv.atPtr(keys[i]).CompareTo(t) >= 0
	})
}

// insertAt inserts v at position i, shifting the tail.
func insertAt[T any](s []T, i int, v T) []T {
	var zero T
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// insertSorted inserts id into keys keeping term order.
func insertSorted(tv termView, keys []ID, id ID) []ID {
	return insertAt(keys, searchTerm(tv, keys, id), id)
}
