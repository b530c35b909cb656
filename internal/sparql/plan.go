package sparql

import (
	"fmt"

	"sapphire/internal/rdf"
)

// plan is the compiled, reordered form of a query: the slot layout of
// the solution rows, every pattern group in greedy execution order, and
// each FILTER assigned to the earliest pipeline stage at which its
// variables can no longer change. The plan is a pure function of the
// query and the graph's cardinality statistics — both the streaming
// pipeline (iter.go) and the materializing reference evaluator used by
// the differential battery execute the same plan, which is what makes
// their outputs byte-identical.
type plan struct {
	q *Query

	// slots maps every pattern variable to a column of the uint32
	// solution row; varNames is the inverse. Variables that appear only
	// in FILTER expressions have no slot.
	slots    map[string]int
	varNames []string

	// groups is the base BGP (one entry) or the UNION branches (one
	// entry each), with patterns in greedy most-selective-first order.
	groups [][]Pattern

	// optionals are the OPTIONAL blocks in declaration order, each with
	// its patterns greedily ordered given everything bound upstream.
	optionals [][]Pattern

	// FILTER placement. A filter runs at the earliest stage where every
	// variable it reads has been bound by all of its potential binders
	// (a later OPTIONAL block may still bind a variable a row is
	// missing, so such filters must wait for it):
	//
	//	levelFilters[l] — after join level l of the single base group
	//	baseFilters     — after the whole BGP / union stage
	//	optFilters[j]   — after OPTIONAL block j
	//	endFilters      — variables bound nowhere; always fail per row
	levelFilters [][]Expr
	baseFilters  []Expr
	optFilters   [][]Expr
	endFilters   []Expr
}

// width returns the solution-row width in slots.
func (pl *plan) width() int { return len(pl.varNames) }

// newPlan validates the query shape, lays out row slots, greedily orders
// every pattern group, and places the filters. reorder=false keeps the
// textual pattern order (used to measure what greedy ordering buys).
func newPlan(g IDGraph, q *Query, reorder bool) (*plan, error) {
	if len(q.Where) == 0 && len(q.UnionGroups) == 0 {
		return nil, fmt.Errorf("sparql: empty WHERE clause")
	}
	if len(q.UnionGroups) > 0 && len(q.Where) > 0 {
		return nil, fmt.Errorf("sparql: mixing UNION with top-level patterns is not supported")
	}
	pl := &plan{q: q, slots: make(map[string]int)}
	for _, v := range q.Vars() {
		pl.slots[v] = len(pl.varNames)
		pl.varNames = append(pl.varNames, v)
	}

	baseBound := make(map[string]bool)
	for _, grp := range patternGroups(q) {
		pl.groups = append(pl.groups, orderGreedy(g, grp, nil, reorder))
		for _, p := range grp {
			p.eachVar(func(v string) { baseBound[v] = true })
		}
	}
	if len(q.Optionals) > 0 {
		upstream := make(map[string]bool, len(baseBound))
		for v := range baseBound {
			upstream[v] = true
		}
		for _, opt := range q.Optionals {
			pl.optionals = append(pl.optionals, orderGreedy(g, opt, upstream, reorder))
			for _, p := range opt {
				p.eachVar(func(v string) { upstream[v] = true })
			}
		}
	}
	pl.placeFilters(baseBound)
	return pl, nil
}

// patternGroups returns the query's top-level pattern groups: the union
// branches, or the single base BGP.
func patternGroups(q *Query) [][]Pattern {
	if len(q.UnionGroups) > 0 {
		return q.UnionGroups
	}
	return [][]Pattern{q.Where}
}

// Filter stages, ordered: join level < base < optional j < end.
const (
	stageLevel = iota
	stageBase
	stageOpt
	stageEnd
)

type stageRef struct{ kind, idx int }

func (a stageRef) after(b stageRef) bool {
	if a.kind != b.kind {
		return a.kind > b.kind
	}
	return a.idx > b.idx
}

// placeFilters assigns each FILTER to its earliest sound stage: the
// latest stage among its variables' last potential binders. A variable
// guaranteed bound by the base stage (it appears in the single BGP, or
// in every union branch) is frozen there — OPTIONAL patterns mentioning
// it only constrain it. A variable not so guaranteed can still be bound
// by any OPTIONAL block that mentions it, so filters reading it wait for
// the last such block. Evaluating a filter at its placed stage then
// yields the same verdict the old evaluate-at-the-end semantics did for
// every row: none of the values it reads can change downstream.
func (pl *plan) placeFilters(baseBound map[string]bool) {
	q := pl.q
	pl.optFilters = make([][]Expr, len(pl.optionals))
	if len(q.Filters) == 0 {
		return
	}
	single := len(q.UnionGroups) == 0
	if single {
		pl.levelFilters = make([][]Expr, len(pl.groups[0]))
	}

	// guaranteed: bound after the base stage for every row.
	guaranteed := make(map[string]bool)
	if single {
		for v := range baseBound {
			guaranteed[v] = true
		}
	} else {
		for v := range baseBound {
			inAll := true
			for _, grp := range q.UnionGroups {
				if !groupBinds(grp, v) {
					inAll = false
					break
				}
			}
			if inAll {
				guaranteed[v] = true
			}
		}
	}
	firstLevel := make(map[string]int)
	if single {
		for l, p := range pl.groups[0] {
			p.eachVar(func(v string) {
				if _, ok := firstLevel[v]; !ok {
					firstLevel[v] = l
				}
			})
		}
	}
	lastOpt := make(map[string]int)
	for j, opt := range q.Optionals {
		for _, p := range opt {
			p.eachVar(func(v string) { lastOpt[v] = j })
		}
	}

	varStage := func(v string) stageRef {
		if guaranteed[v] {
			if single {
				return stageRef{stageLevel, firstLevel[v]}
			}
			return stageRef{stageBase, 0}
		}
		if j, ok := lastOpt[v]; ok {
			return stageRef{stageOpt, j}
		}
		if baseBound[v] { // in some union branches only, no optional binder
			return stageRef{stageBase, 0}
		}
		return stageRef{stageEnd, 0}
	}

	for _, f := range q.Filters {
		vars := make(map[string]bool)
		f.ExprVars(vars)
		st := stageRef{stageLevel, 0}
		if !single {
			st = stageRef{stageBase, 0}
		}
		for v := range vars {
			if s := varStage(v); s.after(st) {
				st = s
			}
		}
		switch st.kind {
		case stageLevel:
			pl.levelFilters[st.idx] = append(pl.levelFilters[st.idx], f)
		case stageBase:
			pl.baseFilters = append(pl.baseFilters, f)
		case stageOpt:
			pl.optFilters[st.idx] = append(pl.optFilters[st.idx], f)
		default:
			pl.endFilters = append(pl.endFilters, f)
		}
	}
}

func groupBinds(grp []Pattern, v string) bool {
	for _, p := range grp {
		found := false
		p.eachVar(func(pv string) { found = found || pv == v })
		if found {
			return true
		}
	}
	return false
}

// orderGreedy orders one pattern group most-selective-first: repeatedly
// pick the cheapest unexecuted pattern given the variables bound so far,
// preferring patterns that share a bound variable over cartesian
// products, then mark its variables bound and recost the rest. Ties keep
// textual order. The cost model is the graph's exact per-constant
// cardinalities (the store maintains them O(1) per entry), which is what
// lets greedy ordering beat estimate-driven planners here. Each
// pattern's base cardinality is looked up exactly once; only the
// bound-variable discount is recomputed per round.
func orderGreedy(g IDGraph, group []Pattern, bound map[string]bool, reorder bool) []Pattern {
	out := make([]Pattern, 0, len(group))
	if !reorder || len(group) == 1 {
		return append(out, group...)
	}
	b := make(map[string]bool, len(bound)+4)
	for v := range bound {
		b[v] = true
	}
	base := make([]int, len(group))
	for i, pat := range group {
		base[i] = patternBaseCost(g, pat)
	}
	used := make([]bool, len(group))
	for range group {
		idx := pickNextGreedy(group, base, used, b)
		used[idx] = true
		out = append(out, group[idx])
		group[idx].eachVar(func(v string) { b[v] = true })
	}
	return out
}

func pickNextGreedy(group []Pattern, base []int, used []bool, bound map[string]bool) int {
	best, bestCost := -1, 0
	for i, pat := range group {
		if used[i] {
			continue
		}
		cost, shares := base[i], false
		pat.eachVar(func(v string) {
			if bound[v] {
				cost /= 4
				shares = true
			}
		})
		// Penalize patterns with no join variable: cartesian product.
		if len(bound) > 0 && !shares {
			cost = cost*16 + 1<<20
		}
		if best < 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	return best
}

// patternBaseCost is the graph's cardinality for the pattern's constant
// positions — the rows an unseeded scan of pat would touch. The greedy
// loop discounts it by /4 per already-bound variable (a bound variable
// turns a sweep into a probe; the exact per-binding count is unknowable
// before the rows exist).
func patternBaseCost(g IDGraph, pat Pattern) int {
	term := func(n Node) rdf.Term {
		if !n.IsVar() {
			return n.Term
		}
		return rdf.Term{}
	}
	return g.CardinalityEstimate(term(pat.S), term(pat.P), term(pat.O))
}

// AdmissionEstimate returns the planner's cost of admitting the query:
// for each top-level pattern group (the base BGP, or each UNION branch)
// the cardinality of the group's first pattern after greedy reordering —
// the scan that actually drives the join — summed across groups.
// OPTIONAL blocks are excluded: they execute per surviving row, seeded
// with bound values, so their work is governed by the driving scans, not
// by their own standalone cardinalities. Endpoints use this for
// admission control (-reject-above): unlike summing the textual
// patterns' cardinalities, it admits cheap-but-badly-written queries
// whose first written pattern is a huge sweep the planner never runs
// first, while still rejecting queries whose cheapest driving scan is
// itself too large.
func AdmissionEstimate(g IDGraph, q *Query) int {
	total := 0
	for _, grp := range patternGroups(q) {
		if len(grp) == 0 {
			continue
		}
		ordered := orderGreedy(g, grp, nil, true)
		total += patternBaseCost(g, ordered[0])
	}
	return total
}
