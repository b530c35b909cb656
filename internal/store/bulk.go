package store

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"sapphire/internal/rdf"
)

// BulkLoader is the staged bulk-load path into a Store. The incremental
// Add keeps every index key slice term-sorted with a binary-search
// insertion, which costs an O(n) memmove per new key — fine for the
// online path, quadratic-ish for loading millions of triples at once
// (datagen, bootstrap, N-Triples ingestion). The loader splits loading
// into two stages instead:
//
//  1. Add/AddAll intern terms into the store's dictionary and buffer
//     the triples as packed 12-byte ID tuples. The store lock is not
//     taken and no index is touched, so staging never stalls a reader
//     or writer.
//  2. Commit, under the store's write lock, deduplicates the batch,
//     builds the three index permutations with grouped appends, and
//     re-sorts each key slice that grew exactly once. Readers never
//     observe a partially built index: a batch becomes visible all at
//     once.
//
// Interleaving online Add calls with a staged load is safe; whichever
// inserts a triple first wins the dedup.
//
// A loader is safe for concurrent use by multiple goroutines and can be
// reused: Commit drains the buffer, so alternating Add/Commit phases
// load in stages while keeping peak buffer memory bounded.
//
// The staging buffer is capped: once it reaches the auto-commit
// threshold (DefaultAutoCommit triples unless overridden with
// SetAutoCommitThreshold), the loader commits inline, so a caller that
// streams an arbitrarily large dump through Add/AddAll without ever
// calling Commit still sees bounded loader memory. Callers that need
// strict all-at-once visibility of a batch must keep the batch under
// the threshold (or raise it).
type BulkLoader struct {
	s *Store

	// mu guards buf and autoCommit; the loader deliberately has its own
	// lock so staging contends with nothing but other stagers.
	mu sync.Mutex

	// buf holds the staged triples as packed ID tuples, in arrival
	// order. Commit preserves this order when building the SPO/OSP
	// innermost slices, so a bulk load is observationally identical to
	// sequential Add.
	buf [][3]ID

	// autoCommit is the staged-triple count at which Add/AddAll commit
	// inline; <= 0 disables the cap.
	autoCommit int

	// Reusable scratch for the batched intern path: the flattened terms
	// of one AddAll chunk and their assigned IDs. Guarded by mu.
	terms []rdf.Term
	ids   []ID
}

// internChunk is how many triples AddAll interns per internAll call:
// large enough that the dictionary lock is taken once per thousands of
// terms, small enough to keep the scratch buffers modest.
const internChunk = 4096

// DefaultAutoCommit is the staged-buffer cap a new BulkLoader starts
// with: 1M staged triples ≈ 12 MB of packed IDs, while each commit
// still amortizes its key-slice sorts over a large batch.
const DefaultAutoCommit = 1 << 20

// NewBulkLoader returns a bulk loader staging into s with the
// DefaultAutoCommit buffer cap.
func NewBulkLoader(s *Store) *BulkLoader {
	return &BulkLoader{s: s, autoCommit: DefaultAutoCommit}
}

// SetAutoCommitThreshold changes the staged-triple count at which the
// loader commits inline. n <= 0 disables auto-commit entirely, restoring
// the unbounded stage-until-Commit behavior (the caller then owns the
// buffer growth).
func (l *BulkLoader) SetAutoCommitThreshold(n int) {
	l.mu.Lock()
	l.autoCommit = n
	l.mu.Unlock()
}

// Add stages one triple. It returns an error if the triple violates RDF
// positional rules; valid triples are interned and buffered but not yet
// visible to readers.
func (l *BulkLoader) Add(tr rdf.Triple) error {
	if !tr.Valid() {
		return fmt.Errorf("store: invalid triple %s", tr)
	}
	si, pi, oi := l.s.dict.internTriple(tr)
	l.mu.Lock()
	l.buf = append(l.buf, [3]ID{si, pi, oi})
	l.maybeAutoCommitLocked()
	l.mu.Unlock()
	return nil
}

// MustAdd stages a triple and panics on invalid input, mirroring
// Store.MustAdd for dataset construction over static inputs.
func (l *BulkLoader) MustAdd(tr rdf.Triple) {
	if err := l.Add(tr); err != nil {
		panic(err)
	}
}

// AddAll stages all triples, stopping at the first invalid one (triples
// before it remain staged). Interning is batched: the dictionary lock
// is acquired once per chunk of triples instead of once per term.
func (l *BulkLoader) AddAll(triples []rdf.Triple) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.s.dict
	for len(triples) > 0 {
		n := min(len(triples), internChunk)
		chunk := triples[:n]
		// Only the valid prefix of the chunk is interned and staged.
		var err error
		for i, tr := range chunk {
			if !tr.Valid() {
				chunk, err = chunk[:i], fmt.Errorf("store: invalid triple %s", tr)
				break
			}
		}
		l.terms = l.terms[:0]
		for _, tr := range chunk {
			l.terms = append(l.terms, tr.S, tr.P, tr.O)
		}
		l.ids = d.internAll(l.terms, l.ids[:0])
		for i := range chunk {
			l.buf = append(l.buf, [3]ID{l.ids[3*i], l.ids[3*i+1], l.ids[3*i+2]})
			l.maybeAutoCommitLocked()
		}
		if err != nil {
			return err
		}
		triples = triples[n:]
	}
	return nil
}

// maybeAutoCommitLocked commits inline when the staged buffer has
// reached the auto-commit threshold. Caller must hold l.mu; concurrent
// readers observe the flushed batch all-or-nothing exactly as with an
// explicit Commit.
func (l *BulkLoader) maybeAutoCommitLocked() {
	if l.autoCommit > 0 && len(l.buf) >= l.autoCommit {
		l.commitLocked()
	}
}

// Commit publishes every staged triple into the store and drains the
// buffer, returning how many were new (staged duplicates and triples
// already present don't count).
func (l *BulkLoader) Commit() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitLocked()
}

// commitLocked is Commit's body; caller must hold l.mu.
func (l *BulkLoader) commitLocked() int {
	if len(l.buf) == 0 {
		return 0
	}
	// The view is taken after every staged term was interned, so it
	// covers every ID in the batch.
	fresh := l.s.commitBatch(l.s.dict.view(), l.buf)
	l.buf = l.buf[:0]
	return fresh
}

// commitBatch publishes a staged batch under the write lock and returns
// how many triples were new.
func (s *Store) commitBatch(tv termView, batch [][3]ID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	fresh := make([][3]ID, 0, len(batch))
	for _, k := range batch {
		if _, dup := s.present[k]; dup {
			continue
		}
		s.present[k] = struct{}{}
		fresh = append(fresh, k)
	}
	s.size += len(fresh)
	s.spo.bulkBuild(tv, fresh, 0, 1, 2)
	s.pos.bulkBuild(tv, fresh, 1, 2, 0)
	s.osp.bulkBuild(tv, fresh, 2, 0, 1)
	if len(fresh) > 0 {
		s.epoch.Add(1)
	}
	return len(fresh)
}

// LoadNTriples streams an N-Triples document into s through a
// BulkLoader without materializing the document as a []rdf.Triple:
// triples are staged in chunks as they parse (12 bytes each once
// interned), and the loader's auto-commit cap (DefaultAutoCommit)
// flushes the staging buffer periodically, so peak loader memory stays
// bounded no matter the dump size. This is the ingestion path for large
// dumps; both the public facade and the bootstrap warehouse builders
// route through it.
func LoadNTriples(s *Store, r io.Reader) error {
	const chunk = 8192
	l := NewBulkLoader(s)
	rd := rdf.NewReader(r)
	buf := make([]rdf.Triple, 0, chunk)
	for {
		tr, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		buf = append(buf, tr)
		if len(buf) == chunk {
			if err := l.AddAll(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if err := l.AddAll(buf); err != nil {
		return err
	}
	l.Commit()
	return nil
}

// bulkBuild merges a deduplicated batch into one index permutation. ai,
// bi, ci select the triple positions forming the permutation's levels.
// The batch is first sorted by (level-1 ID, level-2 ID, arrival order),
// which groups every map key into one consecutive run: each entry is
// probed once per run instead of once per triple, new innermost slices
// are allocated at exact size, and the arrival-order tiebreaker keeps
// the innermost insertion order identical to sequential Add. Each key
// slice that grew is re-sorted exactly once, as is (for sortedInner
// indexes) each innermost list that grew. Runs under the store's write
// lock, so the transient unsorted tails are never observable.
func (x *index) bulkBuild(tv termView, fresh [][3]ID, ai, bi, ci int) {
	rows := make([][4]ID, len(fresh))
	for i, k := range fresh {
		rows[i] = [4]ID{k[ai], k[bi], k[ci], ID(i)}
	}
	sort.Slice(rows, func(i, j int) bool {
		p, q := &rows[i], &rows[j]
		if p[0] != q[0] {
			return p[0] < q[0]
		}
		if p[1] != q[1] {
			return p[1] < q[1]
		}
		return p[3] < q[3]
	})
	l1orig := len(x.keys)
	for i := 0; i < len(rows); {
		a := rows[i][0]
		j := i + 1
		for j < len(rows) && rows[j][0] == a {
			j++
		}
		e := x.m[a]
		if e == nil {
			e = &entry{m: make(map[ID]*[]ID)}
			x.m[a] = e
			x.keys = append(x.keys, a)
		}
		l2orig := len(e.keys)
		for k := i; k < j; {
			b := rows[k][1]
			m := k + 1
			for m < j && rows[m][1] == b {
				m++
			}
			lst := e.m[b]
			if lst == nil {
				nl := make([]ID, 0, m-k)
				lst = &nl
				e.m[b] = lst
				e.keys = append(e.keys, b)
				e.lists = append(e.lists, lst)
			}
			innerOrig := len(*lst)
			for t := k; t < m; t++ {
				*lst = append(*lst, rows[t][2])
			}
			if x.sortedInner {
				mergeTail(tv, *lst, innerOrig)
			}
			e.total += m - k
			k = m
		}
		mergeTailPaired(tv, e.keys, e.lists, l2orig)
		i = j
	}
	mergeTail(tv, x.keys, l1orig)
}

// smallTail is the appended-key count below which the tail-merge
// helpers insert into the sorted prefix instead of re-sorting the whole
// slice, so a small AddAll batch against a large store costs what the
// incremental Add path would, not a full re-sort of every key.
const smallTail = 16

// mergeTail restores term order on a key slice whose first orig
// elements are sorted and whose tail was appended unsorted during a
// bulk build. Large tails (a real bulk load) sort the whole slice once;
// small tails binary-search-insert each appended key in place.
func mergeTail(tv termView, keys []ID, orig int) {
	tail := len(keys) - orig
	if tail == 0 {
		return
	}
	if tail > smallTail || orig == 0 {
		sort.Slice(keys, func(i, j int) bool {
			return tv.atPtr(keys[i]).CompareTo(tv.atPtr(keys[j])) < 0
		})
		return
	}
	for i := orig; i < len(keys); i++ {
		id := keys[i]
		t := tv.atPtr(id)
		j := sort.Search(i, func(k int) bool {
			return tv.atPtr(keys[k]).CompareTo(t) >= 0
		})
		copy(keys[j+1:i+1], keys[j:i])
		keys[j] = id
	}
}

// mergeTailPaired is mergeTail for a key slice with a parallel value
// slice (level-one entries or level-two list boxes): keys and vals move
// together so vals[i] keeps backing keys[i].
func mergeTailPaired[T any](tv termView, keys []ID, vals []T, orig int) {
	tail := len(keys) - orig
	if tail == 0 {
		return
	}
	if tail > smallTail || orig == 0 {
		sort.Sort(pairedByTerm[T]{tv: tv, keys: keys, vals: vals})
		return
	}
	for i := orig; i < len(keys); i++ {
		id, v := keys[i], vals[i]
		t := tv.atPtr(id)
		j := sort.Search(i, func(k int) bool {
			return tv.atPtr(keys[k]).CompareTo(t) >= 0
		})
		copy(keys[j+1:i+1], keys[j:i])
		keys[j] = id
		copy(vals[j+1:i+1], vals[j:i])
		vals[j] = v
	}
}

// pairedByTerm sorts a key slice by term order, carrying the parallel
// value slice through every swap.
type pairedByTerm[T any] struct {
	tv   termView
	keys []ID
	vals []T
}

func (p pairedByTerm[T]) Len() int { return len(p.keys) }
func (p pairedByTerm[T]) Less(i, j int) bool {
	return p.tv.atPtr(p.keys[i]).CompareTo(p.tv.atPtr(p.keys[j])) < 0
}
func (p pairedByTerm[T]) Swap(i, j int) {
	p.keys[i], p.keys[j] = p.keys[j], p.keys[i]
	p.vals[i], p.vals[j] = p.vals[j], p.vals[i]
}
