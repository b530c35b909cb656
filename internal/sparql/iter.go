package sparql

import (
	"encoding/binary"
	"sort"

	"sapphire/internal/rdf"
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

	// The plan's pattern groups and OPTIONAL blocks, compiled once by
	// runPlan; read-only afterwards, so parallel workers share them.
	groups, optionals [][]compiledPattern

	fb Binding // reusable scratch for filter evaluation
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

// scanPattern streams the pattern's matches for the current row as ID
// triples, charging the budget per match. Returns false when production
// stopped early (downstream satisfied, or budget error in x.err).
func (x *exec) scanPattern(cp compiledPattern, row []uint32, yield func(ms, mp, mo uint32) bool) bool {
	if !cp.ok {
		return true
	}
	stopped := false
	x.g.MatchIDsPinned(cp.s.value(row), cp.p.value(row), cp.o.value(row), func(ms, mp, mo uint32) bool {
		if !x.tick() || !yield(ms, mp, mo) {
			stopped = true
			return false
		}
		return true
	})
	return !stopped
}

// levelBind records which row slots one join level binds: the pattern's
// variable positions that are still unbound when the level starts. It is
// computed once per level entry and shared between the serial DFS
// (runSeq) and the parallel workers, which replay the driving level's
// binding for each morsel triple — a single source of truth for the
// repeated-variable semantics.
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

// runSeq joins pats[lvl:] into row depth-first — an index-nested-loop
// join with no per-level materialization — pushing each completed row to
// out. Level filters (single-group queries only) run the moment their
// level binds, dropping rows before deeper scans ever start. Slots bound
// at a level are reset to 0 on the way out, so sibling matches and later
// pattern groups see a clean row. Returns false when production must
// stop.
func (x *exec) runSeq(pats []compiledPattern, lfilters []*filterStage, lvl int, row []uint32, out sink) bool {
	if lvl == len(pats) {
		return out.push(row)
	}
	cp := pats[lvl]
	lb := bindSpec(cp, row)
	return x.scanPattern(cp, row, func(ms, mp, mo uint32) bool {
		if !lb.apply(row, ms, mp, mo) {
			return true
		}
		keep := true
		if lfilters != nil && lfilters[lvl] != nil {
			keep = x.applyFilterStage(lfilters[lvl], row)
		}
		ok := true
		if keep && x.err == nil {
			ok = x.runSeq(pats, lfilters, lvl+1, row, out)
		}
		lb.clear(row)
		return ok && x.err == nil
	})
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
	x       *exec
	pats    []compiledPattern
	next    sink
	matched bool
}

func (op *leftJoinOp) push(row []uint32) bool {
	op.matched = false
	if !op.x.runSeq(op.pats, nil, 0, row, matchSink{op}) {
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
// satisfied it returns false, stopping every upstream producer — for any
// query shape whose tail reaches this operator streamingly (everything
// except ORDER BY and aggregates, which must see all rows first).
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
// where ordinary queries resolve IDs to terms.
type collectOp struct {
	x    *exec
	vars []string
	rows []Binding
}

func (op *collectOp) push(row []uint32) bool {
	nb := make(Binding, len(op.vars))
	for i, v := range op.vars {
		if row[i] != 0 {
			nb[v] = op.x.g.ResolveID(row[i])
		}
	}
	op.rows = append(op.rows, nb)
	return true
}

func (op *collectOp) flush() bool { return true }

// sortAllOp is the generic ORDER BY: buffer every full row with its
// resolved key terms, stable-sort at flush, then stream downstream
// (project → distinct → slice). Used for multi-key ORDER BY, DISTINCT +
// ORDER BY, and unlimited ORDER BY — the shapes the top-k heap cannot
// serve.
type sortAllOp struct {
	x        *exec
	keys     []OrderKey
	keySlots []int
	rows     []sortRow
	next     sink
}

type sortRow struct {
	row   []uint32
	terms []rdf.Term
}

func (op *sortAllOp) push(row []uint32) bool {
	cp := append([]uint32(nil), row...)
	kt := make([]rdf.Term, len(op.keySlots))
	for i, s := range op.keySlots {
		if s >= 0 && row[s] != 0 {
			kt[i] = op.x.g.ResolveID(row[s])
		}
	}
	op.rows = append(op.rows, sortRow{row: cp, terms: kt})
	return true
}

func (op *sortAllOp) flush() bool {
	sort.SliceStable(op.rows, func(i, j int) bool {
		a, b := &op.rows[i], &op.rows[j]
		for k, key := range op.keys {
			c := compareTermsForOrder(a.terms[k], b.terms[k])
			if c != 0 {
				if key.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	for i := range op.rows {
		if !op.next.push(op.rows[i].row) {
			break
		}
	}
	return op.next.flush()
}

// topKOp is the bounded ORDER BY ?x LIMIT k path: a max-heap of the
// Offset+Limit best rows seen so far, ordered by the store's uint64 rank
// labels when they are exact for ORDER BY (integer compares, no term
// resolution), falling back to memoized term compares per item when a
// label is missing or numeric literals make label order inexact. Ties
// break by arrival order (seq), reproducing the stable sort the generic
// path uses, so the emitted page is byte-identical to sort-then-page.
// Memory is O(k · row width) regardless of how many rows stream through.
type topKOp struct {
	x       *exec
	k       int
	desc    bool
	keySlot int // -1: the key variable is bound nowhere (all keys tie)
	label   func(uint32) uint64
	heap    []topkItem // max-heap: root = last of the kept rows in output order
	seq     int
	next    sink
}

type topkItem struct {
	lab      uint64
	id       uint32
	resolved bool
	t        rdf.Term
	seq      int
	row      []uint32
}

func (op *topKOp) push(row []uint32) bool {
	if op.k == 0 {
		return false
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
		it.row = append(op.heap[0].row[:0], row...)
		op.heap[0] = it
		op.siftDown(0)
		return true
	}
	it.row = append([]uint32(nil), row...)
	op.heap = append(op.heap, it)
	op.siftUp(len(op.heap) - 1)
	return true
}

// before reports whether a strictly precedes b in final output order.
// Nonzero labels compare directly (label order == term order, and exact
// ORDER BY order when the label path is enabled at all); any unlabeled
// side falls back to the memoized terms. Equal keys order by arrival.
func (op *topKOp) before(a, b *topkItem) bool {
	c := 0
	if a.lab != 0 && b.lab != 0 {
		switch {
		case a.lab < b.lab:
			c = -1
		case a.lab > b.lab:
			c = 1
		}
	} else {
		c = compareTermsForOrder(op.term(a), op.term(b))
	}
	if op.desc {
		c = -c
	}
	if c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

func (op *topKOp) term(it *topkItem) rdf.Term {
	if !it.resolved {
		if it.id != 0 {
			it.t = op.x.g.ResolveID(it.id)
		}
		it.resolved = true
	}
	return it.t
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
	for i := range op.heap {
		if !op.next.push(op.heap[i].row) {
			break
		}
	}
	return op.next.flush()
}

// tailSpec describes the buffering head of the modifier tail to the
// parallel runner, so each worker can run the equivalent bounded
// operator per morsel: a top-k pruner when the tail is the bounded
// ORDER BY heap, a row cap of skip+limit when every produced row
// reaches the slice unconditionally (no ORDER BY, no DISTINCT, no
// aggregation — projection never drops rows), unbounded otherwise.
type tailSpec struct {
	topK    bool
	k       int
	desc    bool
	keySlot int
	label   func(uint32) uint64
	rowCap  int // -1 = unbounded
}

// buildTail assembles the modifier tail of the pipeline — ORDER BY
// (top-k heap | stable sort) → project → DISTINCT → OFFSET/LIMIT slice
// → collect — and returns its entry sink, the terminal collector, and
// the tailSpec the parallel runner mirrors per morsel. Aggregate
// queries collect full rows directly (their modifiers apply after
// grouping).
func buildTail(x *exec, projVars []string, aggregates bool) (sink, *collectOp, tailSpec) {
	q, pl, g := x.pl.q, x.pl, x.g
	projSlots := make([]int, len(projVars))
	identity := len(projVars) == pl.width()
	for i, v := range projVars {
		if s, ok := pl.slots[v]; ok {
			projSlots[i] = s
		} else {
			projSlots[i] = -1
		}
		if projSlots[i] != i {
			identity = false
		}
	}

	spec := tailSpec{rowCap: -1}
	collect := &collectOp{x: x, vars: projVars}
	var tail sink = collect
	if aggregates {
		return tail, collect, spec
	}
	if q.Offset > 0 || q.Limit >= 0 {
		remain := q.Limit
		if remain < 0 {
			remain = -1
		}
		tail = &sliceOp{skip: q.Offset, remain: remain, next: tail}
		if q.Limit >= 0 && len(q.OrderBy) == 0 && !q.Distinct {
			spec.rowCap = q.Offset + q.Limit
		}
	}
	if q.Distinct {
		tail = &distinctOp{seen: make(map[string]struct{}), next: tail}
	}
	if !identity {
		tail = &projectOp{slots: projSlots, buf: make([]uint32, len(projSlots)), next: tail}
	}
	if len(q.OrderBy) > 0 {
		if len(q.OrderBy) == 1 && q.Limit >= 0 && !q.Distinct {
			op := &topKOp{x: x, k: q.Offset + q.Limit, desc: q.OrderBy[0].Desc, keySlot: -1, next: tail}
			if s, ok := pl.slots[q.OrderBy[0].Var]; ok {
				op.keySlot = s
			}
			if label, exact := g.OrderLabels(); exact {
				op.label = label // may be nil: term fallback per item
			}
			tail = op
			spec.topK, spec.k, spec.desc, spec.keySlot, spec.label =
				true, op.k, op.desc, op.keySlot, op.label
		} else {
			op := &sortAllOp{x: x, keys: q.OrderBy, keySlots: make([]int, len(q.OrderBy)), next: tail}
			for i, k := range q.OrderBy {
				if s, ok := pl.slots[k.Var]; ok {
					op.keySlots[i] = s
				} else {
					op.keySlots[i] = -1
				}
			}
			tail = op
		}
	}
	return tail, collect, spec
}

// buildRowStages wraps tail with the per-row stages that run between
// the base join and the modifier tail: base-stage filters, one left
// join per OPTIONAL block (each followed by its stage filters), and the
// end-stage filters. The serial path builds this once; the parallel
// path builds one per worker (leftJoinOp carries per-row state).
func (x *exec) buildRowStages(tail sink) sink {
	pl := x.pl
	chain := tail
	if st := x.newFilterStage(pl.endFilters); st != nil {
		chain = &filterOp{x: x, st: st, next: chain}
	}
	for j := len(pl.optionals) - 1; j >= 0; j-- {
		if st := x.newFilterStage(pl.optFilters[j]); st != nil {
			chain = &filterOp{x: x, st: st, next: chain}
		}
		chain = &leftJoinOp{x: x, pats: x.optionals[j], next: chain}
	}
	if st := x.newFilterStage(pl.baseFilters); st != nil {
		chain = &filterOp{x: x, st: st, next: chain}
	}
	return chain
}

// levelFilterStages compiles the plan's join-level filters (nil when no
// level has any). The stages are read-only once built, so the parallel
// workers share one set.
func (x *exec) levelFilterStages() []*filterStage {
	if len(x.pl.levelFilters) == 0 {
		return nil
	}
	any := false
	lf := make([]*filterStage, len(x.pl.levelFilters))
	for i, exprs := range x.pl.levelFilters {
		lf[i] = x.newFilterStage(exprs)
		any = any || lf[i] != nil
	}
	if !any {
		return nil
	}
	return lf
}

// runPlan assembles the operator chain for the plan and drives it:
//
//	scan/join (DFS, level filters inline)
//	  → [left join per OPTIONAL block, its stage filters after it]
//	  → [end-stage filters]
//	  → ORDER BY (top-k heap | stable sort) — buffering, pre-projection
//	  → project → DISTINCT (ID hash set) → OFFSET/LIMIT slice → collect
//
// Aggregate queries collect full rows instead of the modifier tail and
// reuse the grouped-aggregation code path unchanged.
//
// With opts.Workers > 1 the scan/join stage runs morsel-parallel (see
// parallel.go): workers execute the per-row stages over morsels of the
// driving scan and the coordinator feeds the modifier tail in morsel
// order, so the output is byte-identical to the serial pipeline. Graphs
// without morsel scans run the serial pipeline instead.
func runPlan(g IDGraph, pl *plan, opts Options) (*Results, error) {
	q := pl.q
	aggregates := q.HasAggregates()
	var projVars []string
	switch {
	case aggregates:
		projVars = pl.varNames
	case q.SelectAll:
		projVars = pl.varNames
	default:
		projVars = make([]string, len(q.Projections))
		for i, p := range q.Projections {
			projVars[i] = p.Var
		}
	}

	// LIMIT 0 can only ever produce the empty result set; answer it at
	// plan time with zero scans, zero budget ticks, and zero locking.
	// (Without this, an ORDER BY tail would build an Offset-sized top-k
	// heap and a plain tail would scan Offset+1 rows, only to emit
	// nothing.) Aggregates keep the full path: their projection names
	// are computed by the aggregation tail.
	if !aggregates && q.Limit == 0 {
		return &Results{Vars: projVars}, nil
	}

	workers := resolveWorkers(opts.Workers)
	x := &exec{pl: pl, g: g, budget: opts.budgetFor(workers > 1)}
	release := g.PinRead()
	defer release()
	//sapphire:allow pinlock Lookup takes only dictionary-shard locks, which no writer holds while it waits for a store shard, so it cannot deadlock against the pin (docs/ARCHITECTURE.md "Lock-free ResolveID"); looking constants up under the pin keeps the whole evaluation on one store state
	x.groups, x.optionals = x.compile(pl.groups), x.compile(pl.optionals)

	tail, collect, spec := buildTail(x, projVars, aggregates)

	var pr *parallelRun
	if workers > 1 {
		pr = newParallelRun(x, workers, spec) // nil: shape needs the serial path
	}
	if pr == nil || !pr.run(tail) {
		chain := x.buildRowStages(tail)
		lf := x.levelFilterStages()
		row := make([]uint32, pl.width())
		for _, grp := range x.groups {
			if !x.runSeq(grp, lf, 0, row, chain) {
				break
			}
		}
	}
	if x.err != nil {
		return nil, x.err
	}
	tail.flush()
	if x.err != nil {
		return nil, x.err
	}

	if aggregates {
		res, err := aggregateResults(q, collect.rows)
		if err != nil {
			return nil, err
		}
		orderResults(q, res)
		pageResults(q, res)
		return res, nil
	}
	return &Results{Vars: projVars, Rows: collect.rows}, nil
}
