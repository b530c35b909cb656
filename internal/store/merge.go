package store

import "sapphire/internal/rdf"

// merger iterates the union of term-sorted ID slices in global term
// order through a loser tree over cached head terms. It replaces the
// flat cursor scan the sharded store first merged with, which paid
// O(k) cursor probes and up to k-1 term comparisons — each comparison
// re-resolving both IDs against the dictionary — per output key. The
// tree plays each new head against O(log k) cached opponents instead,
// and resolves every element's term exactly once, when it becomes its
// list's head.
//
// A merger is reusable: merge resets all internal state, so nested
// fan-outs (the per-object subject merges inside a (?s P ?o) sweep) can
// run thousands of merges without reallocating the tree. It is not safe
// for concurrent use.
type merger struct {
	tv termView
	// rt is the rank-table snapshot captured when the merger was built:
	// labeled IDs compare with one integer compare, everything else
	// falls back to a term compare against lazily resolved heads.
	rt    *rankTable
	lists [][]ID
	cur   []mcur
	// node[1..k-1] hold the loser (list index) of the match played at
	// that tree position; node[0] is the overall winner. Leaves sit at
	// positions k..2k-1 (leaf j = list j), parent of position n is n/2.
	node  []int
	which []int
}

// mcur is one list's merge cursor: the head's order label (0 when
// unlabeled), the head term resolved lazily on the first comparison
// that needs it, the head ID, the cursor position, and liveness.
type mcur struct {
	lbl  uint64
	head *rdf.Term
	id   ID
	pos  int32
	live bool
}

// mergeScratch bundles every allocation a cross-shard fan-out needs —
// the collected entries, their key and list slices, the outer and inner
// mergers — so the wildcard read paths can recycle them through the
// store's pool instead of allocating per call.
type mergeScratch struct {
	entries  []*entry
	keyLists [][]ID
	lists    [][]*[]ID
	inner    [][]ID
	outer    merger
	innerM   merger
}

// reset prepares the scratch for a fan-out under the given dictionary
// view and rank table, emptying the collection slices.
func (sc *mergeScratch) reset(tv termView, rt *rankTable) {
	sc.entries = sc.entries[:0]
	sc.keyLists = sc.keyLists[:0]
	sc.lists = sc.lists[:0]
	sc.inner = sc.inner[:0]
	sc.outer.tv, sc.outer.rt = tv, rt
	sc.innerM.tv, sc.innerM.rt = tv, rt
}

// grow returns s resized to n, reusing capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// merge streams the union of the term-sorted lists in term order,
// invoking visit once per distinct ID together with the indexes (in
// ascending order) of the lists whose cursor currently holds it — a
// term interns to exactly one ID, so equal IDs are the only possible
// ties. It returns false if visit stopped the iteration early.
func (m *merger) merge(lists [][]ID, visit func(id ID, which []int) bool) bool {
	switch len(lists) {
	case 0:
		return true
	case 1:
		one := [1]int{0}
		m.cur = grow(m.cur, 1)
		for i, id := range lists[0] {
			m.cur[0].pos = int32(i) + 1
			if !visit(id, one[:]) {
				return false
			}
		}
		return true
	}
	k := len(lists)
	m.lists = lists
	m.cur = grow(m.cur, k)
	m.node = grow(m.node, k)
	m.which = grow(m.which, k)[:0]
	for i, l := range lists {
		if len(l) > 0 {
			m.cur[i] = mcur{lbl: m.rt.label(l[0]), id: l[0], live: true}
		} else {
			m.cur[i] = mcur{}
		}
	}
	m.node[0] = m.initNode(1)
	for {
		w := m.node[0]
		if !m.cur[w].live {
			return true // winner exhausted: all lists drained
		}
		id := m.cur[w].id
		m.which = append(m.which[:0], w)
		m.advance(w)
		// Ties are equal IDs; the index tiebreak pops them in ascending
		// list order, so which stays sorted. Comparing cursor IDs alone
		// (no term compare) is enough to detect them.
		for {
			w = m.node[0]
			if c := &m.cur[w]; !c.live || c.id != id {
				break
			}
			m.which = append(m.which, w)
			m.advance(w)
		}
		if !visit(id, m.which) {
			return false
		}
	}
}

// posAt returns the index within lists[w] of the element most recently
// delivered to visit for list w. Only valid inside the visit callback,
// and only for values of w present in its which argument — callers use
// it to address data kept parallel to the merged key slices (an index's
// entries/lists) without re-probing a map per output key.
func (m *merger) posAt(w int) int { return int(m.cur[w].pos) - 1 }

// less reports whether list i's head beats list j's. Exhausted lists
// lose to everything and equal heads (necessarily the same ID) fall
// back to list order. When both heads carry distinct order labels from
// the merger's rank-table snapshot the comparison is one inlined
// integer compare; everything else (unlabeled heads, equal IDs,
// exhaustion) takes the out-of-line slow path, where heads resolve once
// per element (cached) and compare as terms, with a list-order tiebreak
// for determinism.
func (m *merger) less(i, j int) bool {
	ci, cj := &m.cur[i], &m.cur[j]
	if ci.live && cj.live {
		if ci.lbl != 0 && cj.lbl != 0 && ci.lbl != cj.lbl {
			return ci.lbl < cj.lbl
		}
		return m.lessSlow(ci, cj, i, j)
	}
	return ci.live
}

func (m *merger) lessSlow(ci, cj *mcur, i, j int) bool {
	if ci.id == cj.id {
		return i < j
	}
	hi, hj := ci.head, cj.head
	if hi == nil {
		hi = m.tv.atPtr(ci.id)
		ci.head = hi
	}
	if hj == nil {
		hj = m.tv.atPtr(cj.id)
		cj.head = hj
	}
	if c := hi.CompareTo(hj); c != 0 {
		return c < 0
	}
	return i < j
}

// initNode plays the initial tournament for the subtree rooted at tree
// position n, storing losers on the way up and returning the subtree's
// winning list index.
func (m *merger) initNode(n int) int {
	if n >= len(m.lists) {
		return n - len(m.lists)
	}
	w1 := m.initNode(2 * n)
	w2 := m.initNode(2*n + 1)
	if m.less(w1, w2) {
		m.node[n] = w2
		return w1
	}
	m.node[n] = w1
	return w2
}

// advance moves list i's cursor forward, refreshes its cached head, and
// replays i's path to the root: at each node the incoming contender
// plays the stored loser, the winner moves up.
func (m *merger) advance(i int) {
	c := &m.cur[i]
	c.pos++
	if l := m.lists[i]; int(c.pos) < len(l) {
		id := l[c.pos]
		c.id = id
		c.lbl = m.rt.label(id)
		c.head = nil
	} else {
		c.live = false
	}
	w := i
	node := m.node
	for n := (len(m.lists) + i) / 2; n >= 1; n /= 2 {
		ln := node[n]
		// The label fast path is duplicated from less because less is
		// beyond the inlining budget and the replay runs log k times
		// per output key — the call overhead is measurable there.
		cl, cw := &m.cur[ln], &m.cur[w]
		var lnWins bool
		if cl.live && cw.live && cl.lbl != 0 && cw.lbl != 0 && cl.lbl != cw.lbl {
			lnWins = cl.lbl < cw.lbl
		} else {
			lnWins = m.less(ln, w)
		}
		if lnWins {
			node[n], w = w, ln
		}
	}
	node[0] = w
}
