package sparql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"sapphire/internal/rdf"
)

// IDGraph is the one execution interface the evaluator speaks:
// dictionary-encoded and always pinned. Joins run over dense uint32 term
// IDs — integer map probes instead of 4-field struct hashing — and IDs
// resolve back to terms only when rows leave the pipeline. The zero ID
// is the wildcard and the unbound sentinel. The in-memory store
// implements it natively; Term-level graphs (remote endpoints,
// federations) go through AdaptTerms. The two optional capabilities
// report "unsupported" by return value, not by a further interface.
type IDGraph interface {
	// CardinalityEstimate returns an upper bound on matching triples
	// (zero terms are wildcards), used for greedy join ordering.
	CardinalityEstimate(s, p, o rdf.Term) int
	// Lookup returns the dictionary ID of a term, or false if the term
	// does not occur in the graph. It is called under the pin, so it may
	// take only locks that are independent of the ones PinRead holds.
	Lookup(t rdf.Term) (uint32, bool)
	// ResolveID returns the term for an ID. It must not take graph
	// locks: it is called from inside scan callbacks.
	ResolveID(id uint32) rdf.Term
	// PinRead acquires the graph's read locks until release is called.
	// The evaluator pins once per evaluation and scans only through the
	// pinned methods, because its depth-first join issues the next
	// level's scan from inside the current level's callback.
	PinRead() (release func())
	// MatchIDsPinned streams matching triples as ID tuples until fn
	// returns false. Under a PinRead session it takes no locks and may
	// be called from inside its own callbacks.
	MatchIDsPinned(s, p, o uint32, fn func(s, p, o uint32) bool)
	// ScanMorselsPinned is MatchIDsPinned pre-batched for the parallel
	// evaluator (parallel.go): the same triples in the same order, in
	// freshly allocated batches of up to size that the callee may
	// retain, callable while other goroutines scan through the same pin.
	// A graph that cannot do that returns false without calling fn, and
	// the evaluation runs serially.
	ScanMorselsPinned(s, p, o uint32, size int, fn func(batch [][3]uint32) bool) (supported bool)
	// OrderLabels exposes per-ID order labels (the store's rank table):
	// label order equals term order for labeled IDs, 0 means unlabeled.
	// exact reports whether label order equals the ORDER BY comparator
	// order for every pair of terms in the graph — false as soon as any
	// literal parses as a number, since SPARQL orders those by value.
	// The top-k ORDER BY operator compares labels instead of terms when
	// exact is true; a nil label means no labels exist.
	OrderLabels() (label func(id uint32) uint64, exact bool)
}

// Graph is the Term-level contract AdaptTerms accepts: what a remote
// endpoint or a federation can answer without a dictionary.
type Graph interface {
	// Match streams triples matching the pattern (zero terms are
	// wildcards) until fn returns false. It must tolerate being called
	// from inside its own callback.
	Match(s, p, o rdf.Term, fn func(rdf.Triple) bool)
	// CardinalityEstimate returns an upper bound on matching triples,
	// used for greedy join ordering.
	CardinalityEstimate(s, p, o rdf.Term) int
}

// AdaptTerms wraps a Term-level graph as an IDGraph for one evaluation,
// giving it the same ID-space pipeline the store gets: terms are
// interned on first sight into a query-local dictionary, IDs dense from
// 1. Interning is injective, so ID equality is term equality — joins,
// DISTINCT and projection work unchanged. The dictionary grows with
// every term seen and is not safe for concurrent use, so make one
// adapter per Eval call.
func AdaptTerms(g Graph) IDGraph {
	return &termAdapter{g: g, ids: make(map[rdf.Term]uint32, 64), terms: make([]rdf.Term, 1, 65)}
}

type termAdapter struct {
	g     Graph
	ids   map[rdf.Term]uint32
	terms []rdf.Term // terms[0] is the zero Term: wildcard in, unbound out
}

func (a *termAdapter) intern(t rdf.Term) uint32 {
	if id, ok := a.ids[t]; ok {
		return id
	}
	id := uint32(len(a.terms))
	a.ids[t] = id
	a.terms = append(a.terms, t)
	return id
}

func (a *termAdapter) CardinalityEstimate(s, p, o rdf.Term) int {
	return a.g.CardinalityEstimate(s, p, o)
}

// Lookup interns: whether a constant occurs is the wrapped graph's
// Match to answer, not the dictionary's.
func (a *termAdapter) Lookup(t rdf.Term) (uint32, bool) { return a.intern(t), true }

func (a *termAdapter) ResolveID(id uint32) rdf.Term { return a.terms[id] }

func (a *termAdapter) PinRead() (release func()) { return func() {} }

func (a *termAdapter) MatchIDsPinned(s, p, o uint32, fn func(s, p, o uint32) bool) {
	a.g.Match(a.terms[s], a.terms[p], a.terms[o], func(tr rdf.Triple) bool {
		return fn(a.intern(tr.S), a.intern(tr.P), a.intern(tr.O))
	})
}

// ScanMorselsPinned is unsupported: parallel workers would race on the
// dictionary.
func (a *termAdapter) ScanMorselsPinned(s, p, o uint32, size int, fn func(batch [][3]uint32) bool) bool {
	return false
}

func (a *termAdapter) OrderLabels() (label func(id uint32) uint64, exact bool) { return nil, false }

// Binding maps variable names to terms for one solution row.
type Binding map[string]rdf.Term

// Results is the outcome of query evaluation.
type Results struct {
	// Vars is the projection list in order.
	Vars []string
	// Rows are the solutions; each maps every projected var (missing
	// entries mean unbound, which cannot happen in this subset).
	Rows []Binding
}

// Sorted returns the rows serialized deterministically, for tests.
func (r *Results) Sorted() []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		parts := make([]string, len(r.Vars))
		for j, v := range r.Vars {
			parts[j] = row[v].String()
		}
		out[i] = strings.Join(parts, " | ")
	}
	sort.Strings(out)
	return out
}

// Budget is invoked for every intermediate row the evaluator produces.
// Simulated endpoints use it to enforce timeouts and result limits the
// way public SPARQL endpoints do; returning an error aborts evaluation.
type Budget func() error

// Options configures evaluation.
type Options struct {
	// Budget, if non-nil, is called once per intermediate row. With
	// Workers > 1 it may be called from several goroutines; the
	// evaluator serializes the calls, so the callback itself needs no
	// locking, but it must not assume any particular interleaving of
	// rows.
	Budget Budget

	// Workers is the intra-query parallelism degree: the number of
	// goroutines that execute the join chain over morsels of the
	// driving scan (see parallel.go). 0 selects the process default
	// (SetDefaultWorkers, itself 1 unless a -parallel flag raised it);
	// values <= 1 evaluate serially. Parallel evaluation needs a graph
	// whose ScanMorselsPinned is supported (the in-memory store) and
	// produces byte-identical results to serial evaluation, row order
	// included.
	Workers int

	// noReorder keeps the textual pattern order instead of the greedy
	// plan — only reachable in-package, to measure what greedy join
	// ordering buys (BenchmarkEvalJoinOrder).
	noReorder bool
}

// budgetFor returns the budget the evaluator should charge: the raw
// callback when evaluation is serial, the mutex-serialized wrapper when
// it is parallel. This accessor is the only sanctioned way to read the
// Budget field at evaluation time — handing the raw callback to
// concurrent workers would race (the pinnedbudget analyzer in
// internal/analysis enforces exactly that).
func (o *Options) budgetFor(parallel bool) Budget {
	if parallel && o.Budget != nil {
		return serializedBudget(o.Budget)
	}
	return o.Budget
}

// defaultWorkers is the process-wide intra-query parallelism default
// used when Options.Workers is 0, settable once at startup via
// SetDefaultWorkers (the serving commands wire their -parallel flag to
// it before taking traffic). It starts at 1: parallelism is opt-in.
var defaultWorkers atomic.Int32

func init() { defaultWorkers.Store(1) }

// DefaultWorkers returns the worker count Options.Workers == 0 selects.
func DefaultWorkers() int { return int(defaultWorkers.Load()) }

// SetDefaultWorkers overrides the process default worker count. n < 1
// is clamped to 1 (serial). Intended for startup flag wiring.
func SetDefaultWorkers(n int) {
	if n < 1 {
		n = 1
	}
	defaultWorkers.Store(int32(n))
}

// resolveWorkers maps an Options.Workers value to the effective degree.
func resolveWorkers(w int) int {
	if w == 0 {
		w = DefaultWorkers()
	}
	if w < 1 {
		return 1
	}
	return w
}

// Eval evaluates a query against a graph: it compiles a plan (slot
// layout, greedy join order, filter placement — see plan.go) and streams
// it through the operator pipeline (see iter.go). Rows arrive in plan
// emission order; ORDER BY is the only modifier that reorders them.
func Eval(g IDGraph, q *Query, opts Options) (*Results, error) {
	pl, err := newPlan(g, q, !opts.noReorder)
	if err != nil {
		return nil, err
	}
	return runPlan(g, pl, opts)
}

// rowKey builds the composite dedup/grouping key for a row in a single
// preallocated builder pass — no per-term String allocations. The bytes
// are identical to joining the terms' N-Triples forms with NUL, keeping
// the deterministic tie-break order stable.
func rowKey(row Binding, vars []string) string {
	var b strings.Builder
	b.Grow(24 * len(vars))
	for i, v := range vars {
		if i > 0 {
			b.WriteByte(0)
		}
		row[v].StringTo(&b)
	}
	return b.String()
}

// projectionNames returns the output column names (aggregate aliases
// included).
func projectionNames(q *Query) []string {
	if q.SelectAll {
		return q.Vars()
	}
	vars := make([]string, 0, len(q.Projections))
	for _, p := range q.Projections {
		vars = append(vars, p.Name())
	}
	return vars
}

// aggregateResults computes grouped aggregates over the full solution
// rows. With no GROUP BY all rows form one group.
func aggregateResults(q *Query, rows []Binding) (*Results, error) {
	groups := make(map[string][]Binding)
	var order []string
	for _, row := range rows {
		key := rowKey(row, q.GroupBy)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], row)
	}
	if len(rows) == 0 && len(q.GroupBy) == 0 {
		// Aggregates over the empty solution set yield one row (COUNT=0).
		order = append(order, "")
		groups[""] = nil
	}
	sort.Strings(order)

	vars := make([]string, len(q.Projections))
	for i, p := range q.Projections {
		vars[i] = p.Name()
	}
	res := &Results{Vars: vars}
	for _, key := range order {
		grows := groups[key]
		out := make(Binding, len(q.Projections))
		for _, p := range q.Projections {
			switch p.Agg {
			case AggNone:
				if len(grows) > 0 {
					out[p.Name()] = grows[0][p.Var]
				}
			case AggCount:
				out[p.Name()] = countAgg(grows, p)
			case AggMax, AggMin, AggSum, AggAvg:
				t, err := numericAgg(grows, p)
				if err != nil {
					return nil, err
				}
				out[p.Name()] = t
			}
		}
		res.Rows = append(res.Rows, out)
	}
	if q.Distinct {
		seen := make(map[string]bool, len(res.Rows))
		out := res.Rows[:0]
		names := projectionNames(q)
		for _, row := range res.Rows {
			key := rowKey(row, names)
			if !seen[key] {
				seen[key] = true
				out = append(out, row)
			}
		}
		res.Rows = out
	}
	return res, nil
}

func countAgg(rows []Binding, p Projection) rdf.Term {
	if p.Var == "" {
		return intLit(len(rows))
	}
	if !p.AggDistinct {
		n := 0
		for _, r := range rows {
			if _, ok := r[p.Var]; ok {
				n++
			}
		}
		return intLit(n)
	}
	seen := make(map[rdf.Term]bool)
	for _, r := range rows {
		if t, ok := r[p.Var]; ok {
			seen[t] = true
		}
	}
	return intLit(len(seen))
}

func numericAgg(rows []Binding, p Projection) (rdf.Term, error) {
	var vals []float64
	for _, r := range rows {
		t, ok := r[p.Var]
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(t.Value, 64)
		if err != nil {
			return rdf.Term{}, fmt.Errorf("sparql: %s over non-numeric value %s", p.Agg, t)
		}
		vals = append(vals, f)
	}
	if len(vals) == 0 {
		return intLit(0), nil
	}
	switch p.Agg {
	case AggMax:
		m := vals[0]
		for _, v := range vals[1:] {
			if v > m {
				m = v
			}
		}
		return floatLit(m), nil
	case AggMin:
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		return floatLit(m), nil
	case AggSum:
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return floatLit(s), nil
	default: // AggAvg
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return floatLit(s / float64(len(vals))), nil
	}
}

func intLit(n int) rdf.Term {
	return rdf.NewTypedLiteral(strconv.Itoa(n), rdf.XSDInteger)
}

func floatLit(f float64) rdf.Term {
	if f == float64(int64(f)) {
		return rdf.NewTypedLiteral(strconv.FormatInt(int64(f), 10), rdf.XSDInteger)
	}
	return rdf.NewTypedLiteral(strconv.FormatFloat(f, 'g', -1, 64), rdf.XSDDouble)
}

// orderResults sorts aggregate output rows by the ORDER BY keys (whose
// variables name output columns, unlike the pre-projection ordering of
// plain queries), falling back to a total deterministic row-key order
// when no keys were given — grouped rows come out of a map, so they need
// a canonical order of their own.
func orderResults(q *Query, res *Results) {
	keys := q.OrderBy
	sort.SliceStable(res.Rows, func(i, j int) bool {
		a, b := res.Rows[i], res.Rows[j]
		for _, k := range keys {
			c := compareTermsForOrder(a[k.Var], b[k.Var])
			if c != 0 {
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		if len(keys) > 0 {
			return false
		}
		return rowKey(a, res.Vars) < rowKey(b, res.Vars)
	})
}

// compareTermsForOrder compares numerically when both terms parse as
// numbers, else by term order.
func compareTermsForOrder(a, b rdf.Term) int {
	if a.IsLiteral() && b.IsLiteral() {
		af, aerr := strconv.ParseFloat(a.Value, 64)
		bf, berr := strconv.ParseFloat(b.Value, 64)
		if aerr == nil && berr == nil {
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return 0
			}
		}
	}
	return a.Compare(b)
}

func pageResults(q *Query, res *Results) {
	if q.Offset > 0 {
		if q.Offset >= len(res.Rows) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(res.Rows) {
		res.Rows = res.Rows[:q.Limit]
	}
}
