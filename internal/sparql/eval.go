package sparql

import (
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

func intLit(n int) rdf.Term {
	return rdf.NewTypedLiteral(strconv.Itoa(n), rdf.XSDInteger)
}

func floatLit(f float64) rdf.Term {
	if f == float64(int64(f)) {
		return rdf.NewTypedLiteral(strconv.FormatInt(int64(f), 10), rdf.XSDInteger)
	}
	return rdf.NewTypedLiteral(strconv.FormatFloat(f, 'g', -1, 64), rdf.XSDDouble)
}

// orderTerm is an ORDER BY key term with its numeric value parsed once,
// so sorting and heap compares parse nothing.
type orderTerm struct {
	t     rdf.Term
	num   float64
	isNum bool
}

func newOrderTerm(t rdf.Term) orderTerm {
	ot := orderTerm{t: t}
	ot.num, ot.isNum = ot.t.NumericValue()
	return ot
}

// compareOrder compares by value when both terms are numeric literals
// (rdf.Term.NumericValue), else by term order.
func compareOrder(a, b *orderTerm) int {
	if a.isNum && b.isNum {
		switch { // not cmp.Compare: NaN stays unordered against everything
		case a.num < b.num:
			return -1
		case a.num > b.num:
			return 1
		default:
			return 0
		}
	}
	return a.t.CompareTo(&b.t)
}
