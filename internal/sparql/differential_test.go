package sparql

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

// refEval is the materializing reference evaluator the streaming
// pipeline replaced: it executes the SAME plan newPlan produces (same
// greedy pattern order, so the same row emission order), but at the
// term level with per-level []Binding materialization — base groups
// joined depth-first, one left-join pass per OPTIONAL block, every
// FILTER applied at the end (placeFilters guarantees stage placement is
// verdict-equivalent to evaluate-at-the-end), then the modifier tail in
// the pipeline's order: ORDER BY (pre-projection) → project → DISTINCT
// → OFFSET/LIMIT. Its output must be byte-identical to Eval's, row
// order included — that equivalence is what the differential battery
// pins. Single-threaded use only: it re-enters Match from inside Match
// callbacks, which the store only tolerates without concurrent writers.
func refEval(g *store.Store, q *Query) (*Results, error) {
	pl, err := newPlan(g, q, true)
	if err != nil {
		return nil, err
	}
	var rows []Binding
	for _, grp := range pl.groups {
		refJoin(g, grp, Binding{}, func(b Binding) {
			rows = append(rows, b)
		})
	}
	for _, opt := range pl.optionals {
		var next []Binding
		for _, row := range rows {
			matched := false
			refJoin(g, opt, row, func(b Binding) {
				matched = true
				next = append(next, b)
			})
			if !matched {
				next = append(next, row)
			}
		}
		rows = next
	}
	if len(q.Filters) > 0 {
		kept := rows[:0]
		for _, row := range rows {
			if refFiltersPass(q.Filters, row) {
				kept = append(kept, row)
			}
		}
		rows = kept
	}

	if q.HasAggregates() {
		res, err := aggregateResults(q, rows)
		if err != nil {
			return nil, err
		}
		orderResults(q, res)
		pageResults(q, res)
		return res, nil
	}

	// Modifier tail, in the streaming pipeline's operator order.
	if len(q.OrderBy) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			for _, k := range q.OrderBy {
				c := compareTermsForOrder(rows[i][k.Var], rows[j][k.Var])
				if c != 0 {
					if k.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
	}
	var projVars []string
	if q.SelectAll {
		projVars = pl.varNames
	} else {
		projVars = make([]string, len(q.Projections))
		for i, p := range q.Projections {
			projVars[i] = p.Var
		}
	}
	projected := make([]Binding, len(rows))
	for i, row := range rows {
		nb := make(Binding, len(projVars))
		for _, v := range projVars {
			if t, ok := row[v]; ok {
				nb[v] = t
			}
		}
		projected[i] = nb
	}
	rows = projected
	if q.Distinct {
		seen := make(map[string]bool, len(rows))
		out := rows[:0]
		for _, row := range rows {
			key := rowKey(row, projVars)
			if !seen[key] {
				seen[key] = true
				out = append(out, row)
			}
		}
		rows = out
	}
	res := &Results{Vars: projVars, Rows: rows}
	pageResults(q, res)
	return res, nil
}

// refJoin enumerates the group's solutions depth-first in pattern
// order, seeding each pattern's bound positions from the binding so
// far — the term-level mirror of the pipeline's index-nested-loop join.
func refJoin(g Graph, pats []Pattern, b Binding, out func(Binding)) {
	if len(pats) == 0 {
		out(b)
		return
	}
	pat := pats[0]
	termOf := func(n Node) rdf.Term {
		if !n.IsVar() {
			return n.Term
		}
		return b[n.Var] // zero Term (wildcard) when unbound
	}
	g.Match(termOf(pat.S), termOf(pat.P), termOf(pat.O), func(tr rdf.Triple) bool {
		if nb := extend(b, pat, tr); nb != nil {
			refJoin(g, pats[1:], nb, out)
		}
		return true
	})
}

func refFiltersPass(filters []Expr, b Binding) bool {
	for _, f := range filters {
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

// dumpOrdered renders results order-sensitively — unlike
// Results.Sorted, a row swap changes the dump. The differential battery
// compares these byte-for-byte.
func dumpOrdered(res *Results) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Vars, ","))
	for _, row := range res.Rows {
		sb.WriteByte('\n')
		for j, v := range res.Vars {
			if j > 0 {
				sb.WriteString(" | ")
			}
			if t, ok := row[v]; ok {
				sb.WriteString(t.String())
			} else {
				sb.WriteString("∅")
			}
		}
	}
	return sb.String()
}

// diffStore seeds a store in the given sharding configuration with a
// graph exercising every query shape: typed subjects, names (absent for
// every 4th subject, so OPTIONAL has unmatched rows), knows edges, and
// — when numeric is true — integer ages, whose presence flips the
// ORDER BY label path off (numeric literals order by value, not term
// order), so both top-k modes get differential coverage.
func diffStore(storeShards, dictShards, n int, numeric bool) *store.Store {
	s := store.NewShardedDict(storeShards, dictShards)
	for i := 0; i < n; i++ {
		diffAddSubject(s.MustAdd, i, n, numeric)
	}
	return s
}

func diffAddSubject(add func(rdf.Triple), i, n int, numeric bool) {
	subj := rdf.NewIRI(fmt.Sprintf("http://x/p%d", i))
	add(rdf.NewTriple(subj, rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://x/Person")))
	if i%4 != 0 {
		add(rdf.NewTriple(subj, rdf.NewIRI("http://x/name"),
			rdf.NewLangLiteral(fmt.Sprintf("Person %d", i), "en")))
	}
	add(rdf.NewTriple(subj, rdf.NewIRI("http://x/knows"),
		rdf.NewIRI(fmt.Sprintf("http://x/p%d", (i*7+3)%n))))
	if numeric {
		add(rdf.NewTriple(subj, rdf.NewIRI("http://x/age"),
			rdf.NewTypedLiteral(fmt.Sprintf("%d", (i*37)%90), rdf.XSDInteger)))
	}
}

// diffQueries is the randomized pool the battery draws from — every
// query shape the engine supports: FILTER (pushed and end-stage),
// OPTIONAL (matched and unmatched, with filters over optional vars),
// DISTINCT, ORDER BY asc/desc single- and multi-key, every LIMIT/OFFSET
// combination, UNION (plain and with modifiers), aggregates, and point
// lookups. Parameterized by the current subject count so lookups hit
// and miss.
func diffQueries(rng *rand.Rand, n int, numeric bool) string {
	i := rng.Intn(n * 2)
	k := 1 + rng.Intn(8)
	m := rng.Intn(5)
	kinds := 13
	if numeric {
		kinds = 15
	}
	switch rng.Intn(kinds) {
	case 0:
		return `SELECT ?s ?n WHERE { ?s a <http://x/Person> . OPTIONAL { ?s <http://x/name> ?n . } }`
	case 1:
		return `SELECT ?s ?n WHERE { ?s a <http://x/Person> . OPTIONAL { ?s <http://x/name> ?n . } FILTER (bound(?n)) }`
	case 2:
		return fmt.Sprintf(`SELECT ?s ?t WHERE { ?s <http://x/knows> ?t . FILTER (contains(str(?t), "%d")) } LIMIT %d`, i%10, k)
	case 3:
		return `SELECT DISTINCT ?t WHERE { ?s <http://x/knows> ?t . }`
	case 4:
		return fmt.Sprintf(`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY ?n LIMIT %d OFFSET %d`, k, m)
	case 5:
		return fmt.Sprintf(`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY DESC(?n) LIMIT %d`, k)
	case 6:
		return fmt.Sprintf(`SELECT ?s WHERE { { ?s a <http://x/Person> . } UNION { ?s <http://x/knows> <http://x/p%d> . } }`, i)
	case 7:
		return fmt.Sprintf(`SELECT DISTINCT ?s WHERE { { ?s a <http://x/Person> . } UNION { ?s <http://x/knows> ?t . } } ORDER BY ?s LIMIT %d`, k)
	case 8:
		return `SELECT (COUNT(?s) AS ?c) WHERE { ?s a <http://x/Person> . ?s <http://x/name> ?n . }`
	case 9:
		return fmt.Sprintf(`SELECT ?p ?o WHERE { <http://x/p%d> ?p ?o . }`, i)
	case 10:
		return fmt.Sprintf(`SELECT ?s ?n WHERE { ?s a <http://x/Person> . ?s <http://x/name> ?n . } ORDER BY DESC(?n) ?s LIMIT %d`, k)
	case 11:
		return fmt.Sprintf(`SELECT ?s WHERE { ?s a <http://x/Person> . } LIMIT %d OFFSET %d`, k, m)
	case 12:
		return fmt.Sprintf(`SELECT ?n ?m WHERE { ?s <http://x/knows> ?t . ?s <http://x/name> ?n . ?t <http://x/name> ?m . FILTER (strlen(str(?n)) > %d) }`, 7+i%3)
	case 13:
		return fmt.Sprintf(`SELECT ?s ?a WHERE { ?s <http://x/age> ?a . } ORDER BY ?a LIMIT %d OFFSET %d`, k, m)
	default:
		return fmt.Sprintf(`SELECT ?s ?a WHERE { ?s <http://x/age> ?a . FILTER (?a > %d) } ORDER BY DESC(?a) LIMIT %d`, i%60, k)
	}
}

// diffWorkload replays the seeded workload against one sharding
// configuration: for every drawn query it records the streaming
// evaluator's order-sensitive dump and fails the test on the spot if
// the materializing reference disagrees byte-for-byte. Mutations —
// online Adds and staged bulk commits — interleave with the queries, so
// equivalence holds at every intermediate store state, not just the
// final one. With adapt the evaluator sees the store only through the
// Term-level adapter (AdaptTerms over Match), the path federations take.
func diffWorkload(t *testing.T, storeShards, dictShards, workers int, numeric, adapt bool) []string {
	t.Helper()
	const base = 24
	rng := rand.New(rand.NewSource(4242))
	s := diffStore(storeShards, dictShards, base, numeric)
	// Force the rank table to exist (the lazy build has a size floor the
	// test store never reaches) so the termorder variant runs ORDER BY
	// through the label fast path — and, after the first mutation, through
	// the mixed labeled/unlabeled comparison the heap falls back on.
	s.BuildOrderLabels()
	loader := store.NewBulkLoader(s)
	next := base
	var dumps []string
	for round := 0; round < 30; round++ {
		for j := 0; j < 5; j++ {
			qs := diffQueries(rng, next, numeric)
			q, err := Parse(qs)
			if err != nil {
				t.Fatalf("parse %q: %v", qs, err)
			}
			var g IDGraph = s
			if adapt {
				g = AdaptTerms(termOnlyGraph{s})
			}
			got, err := Eval(g, q, Options{Workers: workers})
			if err != nil {
				t.Fatalf("eval %q: %v", qs, err)
			}
			want, err := refEval(s, q)
			if err != nil {
				t.Fatalf("refEval %q: %v", qs, err)
			}
			gd, wd := dumpOrdered(got), dumpOrdered(want)
			if gd != wd {
				t.Fatalf("store%d-dict%d round %d: %s\n--- streaming ---\n%s\n--- reference ---\n%s",
					storeShards, dictShards, round, qs, gd, wd)
			}
			dumps = append(dumps, qs+"\n"+gd)
		}
		// Mutate between query batches.
		if rng.Intn(2) == 0 {
			diffAddSubject(s.MustAdd, next, next+1, numeric)
			next++
		} else {
			batch := 1 + rng.Intn(3)
			for b := 0; b < batch; b++ {
				diffAddSubject(loader.MustAdd, next, next+1, numeric)
				next++
			}
			loader.Commit()
		}
	}
	return dumps
}

// TestDifferentialEquivalence is the evaluator-equivalence battery: the
// streaming pipeline against the materializing reference, across every
// (storeShards × dictShards × workers × graph) configuration in
// {1,8}² × {1,4} × {store, Term adapter}, with and without numeric
// literals (toggling the rank-label top-k path), under a seeded workload
// of every query shape interleaved with online Adds and bulk commits.
// Beyond streaming == reference per store, every configuration's dump
// stream must match the (1,1,serial) baseline — neither shard routing,
// morsel parallelism nor the Term adapter may be observable in the
// output. The morsel size is pinned tiny so the little test store still
// splits into many morsels per query, exercising out-of-order
// completion and the ordered merge.
func TestDifferentialEquivalence(t *testing.T) {
	defer func(n int) { parallelMorselSize = n }(parallelMorselSize)
	parallelMorselSize = 3
	for _, numeric := range []bool{false, true} {
		name := "termorder"
		if numeric {
			name = "numeric"
		}
		t.Run(name, func(t *testing.T) {
			base := diffWorkload(t, 1, 1, 1, numeric, false)
			if len(base) == 0 {
				t.Fatal("workload produced no queries")
			}
			for _, adapt := range []bool{false, true} {
				for _, ss := range []int{1, 8} {
					for _, ds := range []int{1, 8} {
						for _, w := range []int{1, 4} {
							if !adapt && ss == 1 && ds == 1 && w == 1 {
								continue
							}
							t.Run(fmt.Sprintf("store%d-dict%d-workers%d-adapt%v", ss, ds, w, adapt), func(t *testing.T) {
								dumps := diffWorkload(t, ss, ds, w, numeric, adapt)
								for i := range dumps {
									if dumps[i] != base[i] {
										t.Fatalf("query %d differs from (1,1,serial) baseline:\n%s\n--- baseline ---\n%s",
											i, dumps[i], base[i])
									}
								}
							})
						}
					}
				}
			}
		})
	}
}
