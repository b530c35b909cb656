package sparql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sapphire/internal/rdf"
)

// IDGraph is the one execution interface the evaluator speaks:
// dictionary-encoded and always pinned. Joins run over dense uint32 term
// IDs — integer map probes instead of 4-field struct hashing — and IDs
// resolve back to terms only when rows leave the pipeline. The zero ID
// is the wildcard and the unbound sentinel. The in-memory store and the
// federation (over its own dictionary of member answers) implement it.
// The one optional capability reports "unsupported" by return value,
// not by a further interface.
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
	// OrderLabels exposes per-ID order labels (the store's rank table):
	// label order equals term order for labeled IDs, 0 means unlabeled,
	// and a label's low bit is set exactly when its term is a numeric
	// literal (rdf.Term.NumericValue). The top-k ORDER BY operator
	// compares labels instead of terms unless a side is unlabeled or
	// both sides are numeric, the one case where SPARQL's value order
	// and term order differ. A nil label means no labels exist.
	OrderLabels() (label func(id uint32) uint64)
}

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
	// Budget, if non-nil, is called once per intermediate row — every
	// scan match and every filter test of the depth-first join — on the
	// evaluating goroutine, so the callback needs no locking of its own.
	Budget Budget

	// noReorder keeps the textual pattern order instead of the greedy
	// plan — only reachable in-package, to measure what greedy join
	// ordering buys (BenchmarkEvalJoinOrder).
	noReorder bool
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

// compareTermsForOrder compares by value when both terms are numeric
// literals (rdf.Term.NumericValue), else by term order.
func compareTermsForOrder(a, b rdf.Term) int {
	if af, ok := a.NumericValue(); ok {
		if bf, ok := b.NumericValue(); ok {
			switch { // not cmp.Compare: NaN stays unordered against everything
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return 0
			}
		}
	}
	return a.CompareTo(&b)
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
