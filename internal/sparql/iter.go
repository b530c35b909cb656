package sparql

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sort"
)

// sink is one operator of the streaming pipeline. Rows are uint32 ID
// slices indexed by the plan's slot table, with 0 = unbound. A pushed
// row is borrowed: it is only valid for the duration of the call, so
// operators that buffer rows (sort, top-k) copy them. push returns false
// to stop the upstream producer — either downstream has every row it
// needs (LIMIT early-exit) or the budget errored (exec.err is set).
// flush signals end-of-input so buffering operators can drain.
type sink interface {
	push(row []uint32) bool
	flush() bool
}

// exec is the shared state of one pipeline execution.
type exec struct {
	pl     *plan
	g      IDGraph // pinned by runPlan for the whole evaluation
	budget Budget
	err    error

	fb    Binding     // reusable scratch for filter evaluation
	owned *ownedTerms // set by grouping, the one operator that owns terms
}

// tick charges the budget for one intermediate row.
func (x *exec) tick() bool {
	if x.budget == nil {
		return true
	}
	if err := x.budget(); err != nil {
		x.err = err
		return false
	}
	return true
}

// patPos is one compiled pattern position: a row slot for variables, or
// a constant's dictionary ID.
type patPos struct {
	slot int // variable: row column; -1 for constants
	id   uint32
}

// value returns the ID to probe with: the bound slot value (0 = still
// unbound, i.e. wildcard) or the constant.
func (p patPos) value(row []uint32) uint32 {
	if p.slot >= 0 {
		return row[p.slot]
	}
	return p.id
}

type compiledPattern struct {
	s, p, o patPos
	ok      bool // every constant resolves in the dictionary
}

// compile prepares pattern groups for execution: constants are looked
// up in the dictionary once (an absent constant makes the pattern
// matchless), variables become row slots.
func (x *exec) compile(groups [][]Pattern) [][]compiledPattern {
	out := make([][]compiledPattern, len(groups))
	for gi, pats := range groups {
		out[gi] = make([]compiledPattern, len(pats))
		for i, p := range pats {
			cp := compiledPattern{ok: true}
			cp.s = x.compilePos(p.S, &cp.ok)
			cp.p = x.compilePos(p.P, &cp.ok)
			cp.o = x.compilePos(p.O, &cp.ok)
			out[gi][i] = cp
		}
	}
	return out
}

func (x *exec) compilePos(n Node, ok *bool) patPos {
	if n.IsVar() {
		return patPos{slot: x.pl.slots[n.Var]}
	}
	id, found := x.g.Lookup(n.Term)
	if !found {
		*ok = false
	}
	return patPos{slot: -1, id: id}
}

// levelBind records which row slots one join level binds: the pattern's
// variable positions that are still unbound when the level starts. It is
// computed once per level entry by joinSeq.run and is the single source
// of truth for the repeated-variable semantics.
type levelBind struct {
	su, pu, ou int // slots this level binds; -1 = constant or already bound
}

// bindSpec computes the level's unbound slots for the current row state.
func bindSpec(cp compiledPattern, row []uint32) levelBind {
	lb := levelBind{su: -1, pu: -1, ou: -1}
	if cp.s.slot >= 0 && row[cp.s.slot] == 0 {
		lb.su = cp.s.slot
	}
	if cp.p.slot >= 0 && row[cp.p.slot] == 0 {
		lb.pu = cp.p.slot
	}
	if cp.o.slot >= 0 && row[cp.o.slot] == 0 {
		lb.ou = cp.o.slot
	}
	return lb
}

// apply writes the match into the row's unbound slots, reporting false
// when a variable repeated within the pattern matched two different
// terms (the row is then untouched).
func (lb levelBind) apply(row []uint32, ms, mp, mo uint32) bool {
	if lb.su >= 0 && ((lb.su == lb.pu && ms != mp) || (lb.su == lb.ou && ms != mo)) {
		return false
	}
	if lb.pu >= 0 && lb.pu == lb.ou && mp != mo {
		return false
	}
	if lb.su >= 0 {
		row[lb.su] = ms
	}
	if lb.pu >= 0 {
		row[lb.pu] = mp
	}
	if lb.ou >= 0 {
		row[lb.ou] = mo
	}
	return true
}

// clear resets the slots apply bound, so sibling matches and later
// pattern groups see a clean row.
func (lb levelBind) clear(row []uint32) {
	if lb.su >= 0 {
		row[lb.su] = 0
	}
	if lb.pu >= 0 {
		row[lb.pu] = 0
	}
	if lb.ou >= 0 {
		row[lb.ou] = 0
	}
}

// joinSeq is one pattern sequence — a pattern group or an OPTIONAL
// block — compiled once per evaluation into per-level frames over the
// evaluation's shared row buffer, so the depth-first join allocates
// nothing per row. Each level is entered at most once at a time: the
// join is depth-first, and no operator feeds rows back into its own
// upstream, so one frame per level holds all of a level's state.
type joinSeq struct {
	x      *exec
	levels []joinLevel
	row    []uint32
	out    sink
}

// joinLevel is one level's frame: the state a per-call closure would
// otherwise capture (the slots this entry binds, the early-stop flag),
// and the scan callback, the method value onMatch bound once.
type joinLevel struct {
	seq     *joinSeq
	depth   int
	cp      compiledPattern
	filter  *filterStage // level filter; nil when none
	lb      levelBind    // slots the current entry binds
	stopped bool         // the current entry's scan was told to stop
	match   func(ms, mp, mo uint32) bool
}

// newJoinSeq lays out pats as frames. lfilters holds one filter stage
// per level (nil entries for levels without one), or is nil.
func (x *exec) newJoinSeq(pats []compiledPattern, lfilters []*filterStage, row []uint32, out sink) *joinSeq {
	js := &joinSeq{x: x, levels: make([]joinLevel, len(pats)), row: row, out: out}
	for i := range js.levels {
		lv := &js.levels[i]
		lv.seq, lv.depth, lv.cp = js, i, pats[i]
		if lfilters != nil {
			lv.filter = lfilters[i]
		}
		lv.match = lv.onMatch
	}
	return js
}

// run joins levels[lvl:] into the row depth-first — an index-nested-loop
// join with no per-level materialization — pushing each completed row to
// out. Level filters (single-group queries only) run the moment their
// level binds, dropping rows before deeper scans ever start. Slots bound
// at a level are reset to 0 on the way out, so sibling matches and later
// pattern groups see a clean row. Returns false when production must
// stop (downstream satisfied, or budget error in x.err).
func (js *joinSeq) run(lvl int) bool {
	if lvl == len(js.levels) {
		return js.out.push(js.row)
	}
	lv := &js.levels[lvl]
	if !lv.cp.ok {
		return true
	}
	row := js.row
	lv.lb = bindSpec(lv.cp, row)
	lv.stopped = false
	js.x.g.MatchIDsPinned(lv.cp.s.value(row), lv.cp.p.value(row), lv.cp.o.value(row), lv.match)
	return !lv.stopped
}

// onMatch is a level's scan callback: it charges the budget for the
// match, binds it, runs the level filter, descends, and clears the
// level's slots on the way out.
func (lv *joinLevel) onMatch(ms, mp, mo uint32) bool {
	js, x := lv.seq, lv.seq.x
	if !x.tick() {
		lv.stopped = true
		return false
	}
	if !lv.lb.apply(js.row, ms, mp, mo) {
		return true
	}
	ok := true
	if (lv.filter == nil || x.applyFilterStage(lv.filter, js.row)) && x.err == nil {
		ok = js.run(lv.depth + 1)
	}
	lv.lb.clear(js.row)
	if !ok || x.err != nil {
		lv.stopped = true
		return false
	}
	return true
}

// filterStage is a compiled batch of FILTER expressions sharing one
// pipeline position, with the variables they read pre-resolved to slots.
type filterStage struct {
	exprs []Expr
	vars  []filterVar
}

type filterVar struct {
	name string
	slot int // -1: the variable has no slot (bound nowhere)
}

func (x *exec) newFilterStage(exprs []Expr) *filterStage {
	if len(exprs) == 0 {
		return nil
	}
	set := make(map[string]bool)
	for _, f := range exprs {
		f.ExprVars(set)
	}
	st := &filterStage{exprs: exprs}
	for v := range set {
		slot, ok := x.pl.slots[v]
		if !ok {
			slot = -1
		}
		st.vars = append(st.vars, filterVar{name: v, slot: slot})
	}
	return st
}

// applyFilterStage reports whether the row survives the stage's filters,
// charging the budget once per row. Evaluation errors fail the filter
// for the row, not the query (SPARQL semantics); a budget error sets
// x.err. The scratch Binding holds only the variables the stage reads.
func (x *exec) applyFilterStage(st *filterStage, row []uint32) bool {
	if !x.tick() {
		return false
	}
	b := x.fb
	if b == nil {
		b = make(Binding, 4)
		x.fb = b
	}
	for k := range b {
		delete(b, k)
	}
	for _, fv := range st.vars {
		if fv.slot >= 0 && row[fv.slot] != 0 {
			b[fv.name] = x.g.ResolveID(row[fv.slot])
		}
	}
	for _, f := range st.exprs {
		v, err := f.Eval(b)
		if err != nil {
			return false
		}
		bv, err := v.EffectiveBool()
		if err != nil || !bv {
			return false
		}
	}
	return true
}

// filterOp drops rows that fail its stage.
type filterOp struct {
	x    *exec
	st   *filterStage
	next sink
}

func (op *filterOp) push(row []uint32) bool {
	if !op.x.applyFilterStage(op.st, row) {
		return op.x.err == nil
	}
	return op.next.push(row)
}

func (op *filterOp) flush() bool { return op.next.flush() }

// leftJoinOp implements OPTIONAL: each incoming row is extended with
// every match of the block (bound into the same row buffer — the block's
// free slots are disjoint from the row's bound ones), or forwarded
// unextended when the block has no match.
type leftJoinOp struct {
	seq     *joinSeq // the block, pushing to matchSink{op}
	next    sink
	matched bool
}

func (op *leftJoinOp) push(row []uint32) bool {
	op.matched = false
	if !op.seq.run(0) {
		return false
	}
	if !op.matched {
		return op.next.push(row)
	}
	return true
}

func (op *leftJoinOp) flush() bool { return op.next.flush() }

// matchSink marks the enclosing left join matched and forwards.
type matchSink struct{ op *leftJoinOp }

func (m matchSink) push(row []uint32) bool {
	m.op.matched = true
	return m.op.next.push(row)
}

func (m matchSink) flush() bool { return true }

// projectOp narrows full solution rows to the projected columns.
type projectOp struct {
	slots []int // output column -> source slot, -1 = never bound
	buf   []uint32
	next  sink
}

func (op *projectOp) push(row []uint32) bool {
	for i, s := range op.slots {
		if s >= 0 {
			op.buf[i] = row[s]
		} else {
			op.buf[i] = 0
		}
	}
	return op.next.push(op.buf)
}

func (op *projectOp) flush() bool { return op.next.flush() }

// distinctOp deduplicates projected rows by their raw ID bytes — the
// dictionary is injective, so ID-row equality is term-row equality. This
// replaces the old post-hoc N-Triples string keys: 4 bytes per column
// and no term resolution for dropped duplicates.
type distinctOp struct {
	seen map[string]struct{}
	key  []byte
	next sink
}

func (op *distinctOp) push(row []uint32) bool {
	op.key = op.key[:0]
	for _, id := range row {
		op.key = binary.LittleEndian.AppendUint32(op.key, id)
	}
	if _, dup := op.seen[string(op.key)]; dup {
		return true
	}
	op.seen[string(op.key)] = struct{}{}
	return op.next.push(row)
}

func (op *distinctOp) flush() bool { return op.next.flush() }

// sliceOp implements OFFSET/LIMIT with early exit: once the limit is
// satisfied it returns false, stopping every upstream producer. Behind
// a buffering operator (ORDER BY, grouping) it stops the flush instead.
type sliceOp struct {
	skip   int
	remain int // -1 = no limit
	next   sink
}

func (op *sliceOp) push(row []uint32) bool {
	if op.skip > 0 {
		op.skip--
		return true
	}
	if op.remain == 0 {
		return false
	}
	if !op.next.push(row) {
		return false
	}
	if op.remain > 0 {
		op.remain--
		if op.remain == 0 {
			return false
		}
	}
	return true
}

func (op *sliceOp) flush() bool { return op.next.flush() }

// collectOp materializes projected rows into Bindings — the only point
// where output IDs, graph or owned, resolve to terms.
type collectOp struct {
	x    *exec
	vars []string
	rows []Binding
}

func (op *collectOp) push(row []uint32) bool {
	nb := make(Binding, len(op.vars))
	for i, v := range op.vars {
		if row[i] != 0 {
			nb[v] = op.x.term(row[i])
		}
	}
	op.rows = append(op.rows, nb)
	return true
}

func (op *collectOp) flush() bool { return true }

// sortAllOp is the generic ORDER BY: buffer every full row with its
// key terms, stable-sort at flush, then stream downstream (project →
// distinct → slice). Used for multi-key ORDER BY, DISTINCT + ORDER BY,
// and unlimited ORDER BY — the shapes the top-k heap cannot serve.
type sortAllOp struct {
	x        *exec
	keys     []OrderKey
	keySlots []int
	rows     []uint32    // buffered rows, back to back
	ot       []orderTerm // their key terms, per row × key
	next     sink
}

func (op *sortAllOp) push(row []uint32) bool {
	op.rows = append(op.rows, row...)
	for _, s := range op.keySlots {
		op.ot = append(op.ot, newOrderTerm(op.x.term(slotValue(row, s))))
	}
	return true
}

func (op *sortAllOp) flush() bool {
	n, w := len(op.ot)/len(op.keys), op.x.pl.width()
	perm := identity(n)
	sortByKeys(perm, op.ot, op.keys)
	for _, i := range perm {
		if !op.next.push(op.rows[i*w : (i+1)*w]) {
			break
		}
	}
	return op.next.flush()
}

// sortByKeys stably sorts perm, row indices, by the ORDER BY keys; ot
// holds each row's key terms (row i's at ot[i*len(keys):]).
func sortByKeys(perm []int, ot []orderTerm, keys []OrderKey) {
	nk := len(keys)
	slices.SortStableFunc(perm, func(a, b int) int {
		for k, key := range keys {
			if c := compareOrder(&ot[a*nk+k], &ot[b*nk+k]); c != 0 {
				if key.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
}

// topKOp is the bounded ORDER BY ?x LIMIT k path: a max-heap of the
// Offset+Limit best rows seen so far, ordered by the store's uint64 rank
// labels (integer compares, no term resolution; see compareLabels),
// falling back to memoized terms, numeric values parsed once, for a
// pair the labels cannot decide: a side is unlabeled, or both sides are
// numeric literals. Ties break by arrival order (seq), reproducing the
// stable sort the generic path uses, so the emitted page is
// byte-identical to sort-then-page.
// Memory is O(k · row width) regardless of how many rows stream through.
type topKOp struct {
	x       *exec
	k       int
	desc    bool
	keySlot int // -1: the key variable is bound nowhere (all keys tie)
	label   func(uint32) uint64
	heap    []topkItem // max-heap: root = last of the kept rows in output order
	rows    []uint32   // the kept rows back to back; an item's ri indexes them
	seq     int
	next    sink
}

type topkItem struct {
	lab      uint64
	id       uint32
	resolved bool
	ot       orderTerm
	seq      int
	ri       int
}

func (op *topKOp) push(row []uint32) bool {
	if op.k == 0 {
		return false
	}
	if op.heap == nil {
		n := min(op.k, 1024) // a page's worth up front; a deeper heap grows by append
		op.heap, op.rows = make([]topkItem, 0, n), make([]uint32, 0, n*len(row))
	}
	it := topkItem{seq: op.seq}
	op.seq++
	if op.keySlot >= 0 {
		it.id = row[op.keySlot]
	}
	if op.label != nil && it.id != 0 {
		it.lab = op.label(it.id)
	}
	if len(op.heap) == op.k {
		if !op.before(&it, &op.heap[0]) {
			return true // at or after the current worst: not in the top k
		}
		it.ri = op.heap[0].ri
		copy(op.rows[it.ri*len(row):], row)
		op.heap[0] = it
		op.siftDown(0)
		return true
	}
	it.ri = len(op.heap)
	op.rows = append(op.rows, row...)
	op.heap = append(op.heap, it)
	op.siftUp(len(op.heap) - 1)
	return true
}

// before reports whether a strictly precedes b in final output order:
// by labels when compareLabels decides, else by the memoized terms.
// Equal keys order by arrival.
func (op *topKOp) before(a, b *topkItem) bool {
	c, ok := compareLabels(a.lab, b.lab)
	if !ok {
		c = compareOrder(op.term(a), op.term(b))
	}
	if op.desc {
		c = -c
	}
	if c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

// compareLabels orders two rank labels the way compareOrder orders
// their terms, reporting ok = false when the labels cannot decide: a
// side is unlabeled (0), or both carry the numeric bit, since
// SPARQL orders two numeric literals by value while labels follow term
// order. For every other labeled pair the comparator is term order, so
// label order is exact (FuzzOrderLabelsAgreeWithComparator).
func compareLabels(a, b uint64) (c int, ok bool) {
	if a == 0 || b == 0 || a&b&1 != 0 {
		return 0, false
	}
	return cmp.Compare(a, b), true
}

func (op *topKOp) term(it *topkItem) *orderTerm {
	if !it.resolved {
		it.ot, it.resolved = newOrderTerm(op.x.term(it.id)), true
	}
	return &it.ot
}

func (op *topKOp) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !op.before(&op.heap[p], &op.heap[i]) {
			return
		}
		op.heap[p], op.heap[i] = op.heap[i], op.heap[p]
		i = p
	}
}

func (op *topKOp) siftDown(i int) {
	n := len(op.heap)
	for {
		big := i
		if l := 2*i + 1; l < n && op.before(&op.heap[big], &op.heap[l]) {
			big = l
		}
		if r := 2*i + 2; r < n && op.before(&op.heap[big], &op.heap[r]) {
			big = r
		}
		if big == i {
			return
		}
		op.heap[i], op.heap[big] = op.heap[big], op.heap[i]
		i = big
	}
}

func (op *topKOp) flush() bool {
	sort.Slice(op.heap, func(i, j int) bool { return op.before(&op.heap[i], &op.heap[j]) })
	w := op.x.pl.width()
	for i := range op.heap {
		if !op.next.push(op.rows[op.heap[i].ri*w : (op.heap[i].ri+1)*w]) {
			break
		}
	}
	return op.next.flush()
}

// buildTail assembles the modifier tail of the pipeline and returns its
// entry sink and the terminal collector: ORDER BY (top-k heap | stable
// sort) → project, or for aggregate queries the grouping sink, which
// emits projected rows in their final order; then DISTINCT →
// OFFSET/LIMIT slice → collect.
func buildTail(x *exec, projVars []string) (sink, *collectOp) {
	q, pl, g := x.pl.q, x.pl, x.g
	collect := &collectOp{x: x, vars: projVars}
	var tail sink = collect
	if q.Offset > 0 || q.Limit >= 0 {
		remain := q.Limit
		if remain < 0 {
			remain = -1
		}
		tail = &sliceOp{skip: q.Offset, remain: remain, next: tail}
	}
	if q.Distinct {
		tail = &distinctOp{seen: make(map[string]struct{}), next: tail}
	}
	if q.HasAggregates() {
		return newGroupOp(x, tail), collect
	}
	projSlots := make([]int, len(projVars))
	identity := len(projVars) == pl.width()
	for i, v := range projVars {
		projSlots[i] = x.slotOf(v)
		identity = identity && projSlots[i] == i
	}
	if !identity {
		tail = &projectOp{slots: projSlots, buf: make([]uint32, len(projSlots)), next: tail}
	}
	if len(q.OrderBy) > 0 {
		if len(q.OrderBy) == 1 && q.Limit >= 0 && !q.Distinct {
			op := &topKOp{x: x, k: q.Offset + q.Limit, desc: q.OrderBy[0].Desc, keySlot: x.slotOf(q.OrderBy[0].Var), next: tail}
			op.label = g.OrderLabels() // may be nil: term fallback per item
			tail = op
		} else {
			op := &sortAllOp{x: x, keys: q.OrderBy, keySlots: make([]int, len(q.OrderBy)), next: tail}
			for i, k := range q.OrderBy {
				op.keySlots[i] = x.slotOf(k.Var)
			}
			tail = op
		}
	}
	return tail, collect
}

// runPlan assembles the operator chain for the plan and drives it:
//
//	scan/join (DFS, level filters inline)
//	  → [left join per OPTIONAL block, its stage filters after it]
//	  → [end-stage filters]
//	  → ORDER BY (top-k heap | stable sort) — buffering, pre-projection
//	    → project, or for aggregates GROUP BY (buffering, see groupOp)
//	  → DISTINCT (ID hash set) → OFFSET/LIMIT slice → collect
func runPlan(g IDGraph, pl *plan, opts Options) (*Results, error) {
	q := pl.q
	aggregates := q.HasAggregates()
	var projVars []string
	if q.SelectAll {
		projVars = pl.varNames
	} else {
		projVars = make([]string, len(q.Projections))
		for i, p := range q.Projections {
			projVars[i] = p.Var
			if aggregates {
				projVars[i] = p.Name()
			}
		}
	}

	// LIMIT 0 can only ever produce the empty result set; answer it at
	// plan time with zero scans, zero budget ticks, and zero locking.
	// (Without this, an ORDER BY tail would build an Offset-sized top-k
	// heap and a plain tail would scan Offset+1 rows, only to emit
	// nothing.) Aggregates keep the full path: a non-numeric SUM, MIN,
	// MAX or AVG value fails the query whatever its LIMIT.
	if !aggregates && q.Limit == 0 {
		return &Results{Vars: projVars}, nil
	}

	x := &exec{pl: pl, g: g, budget: opts.Budget}
	release := g.PinRead()
	defer release()
	//sapphire:allow pinlock Lookup takes only the dictionary lock, which no writer holds while it waits for the store lock (interning runs before the store write lock is taken), so it cannot deadlock against the pin (docs/ARCHITECTURE.md "Lock-free ResolveID"); looking constants up under the pin keeps the whole evaluation on one store state
	groups, optionals := x.compile(pl.groups), x.compile(pl.optionals)

	tail, collect := buildTail(x, projVars)
	chain := tail
	if st := x.newFilterStage(pl.endFilters); st != nil {
		chain = &filterOp{x: x, st: st, next: chain}
	}
	row := make([]uint32, pl.width())
	for j := len(optionals) - 1; j >= 0; j-- {
		if st := x.newFilterStage(pl.optFilters[j]); st != nil {
			chain = &filterOp{x: x, st: st, next: chain}
		}
		lj := &leftJoinOp{next: chain}
		lj.seq = x.newJoinSeq(optionals[j], nil, row, matchSink{lj})
		chain = lj
	}
	if st := x.newFilterStage(pl.baseFilters); st != nil {
		chain = &filterOp{x: x, st: st, next: chain}
	}

	var lf []*filterStage // per join level; nil when no level has any
	if len(pl.levelFilters) > 0 {
		any := false
		lf = make([]*filterStage, len(pl.levelFilters))
		for i, exprs := range pl.levelFilters {
			lf[i] = x.newFilterStage(exprs)
			any = any || lf[i] != nil
		}
		if !any {
			lf = nil
		}
	}

	for _, grp := range groups {
		if !x.newJoinSeq(grp, lf, row, chain).run(0) {
			break
		}
	}
	if x.err != nil {
		return nil, x.err
	}
	tail.flush()
	if x.err != nil {
		return nil, x.err
	}
	return &Results{Vars: projVars, Rows: collect.rows}, nil
}
