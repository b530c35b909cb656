package sparql

import (
	"fmt"
	"slices"
	"testing"

	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

// buildWide builds a store with n subjects, each typed and named, plus a
// knows-chain, so single patterns, joins, and unions all have hundreds
// of solutions.
func buildWide(t testing.TB, n int) *store.Store {
	t.Helper()
	s := store.New()
	typ := rdf.NewIRI(rdf.RDFType)
	person := rdf.NewIRI("http://x/Person")
	name := rdf.NewIRI("http://x/name")
	knows := rdf.NewIRI("http://x/knows")
	l := store.NewBulkLoader(s)
	for i := 0; i < n; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/p%d", i))
		l.MustAdd(rdf.NewTriple(subj, typ, person))
		l.MustAdd(rdf.NewTriple(subj, name, rdf.NewLangLiteral(fmt.Sprintf("Person %d", i), "en")))
		l.MustAdd(rdf.NewTriple(subj, knows, rdf.NewIRI(fmt.Sprintf("http://x/p%d", (i+1)%n))))
	}
	l.Commit()
	return s
}

// rowStrings renders result rows in order, one string per row, so two
// evaluations can be compared row-for-row (not as sets).
func rowStrings(res *Results) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		s := ""
		for j, v := range res.Vars {
			if j > 0 {
				s += " | "
			}
			s += row[v].String()
		}
		out[i] = s
	}
	return out
}

// TestLimitPushdownEquivalence pins the LIMIT/OFFSET pushdown against
// the slow path: for every query shape — pushdown-eligible ones (plain
// BGPs, unions) and ineligible ones (ORDER BY, DISTINCT, FILTER,
// OPTIONAL, aggregates) — evaluating with LIMIT k OFFSET m must produce
// row-for-row the slice [m, m+k) of the same query evaluated without
// paging.
func TestLimitPushdownEquivalence(t *testing.T) {
	s := buildWide(t, 120)
	bases := []string{
		`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . }`,
		`SELECT ?s WHERE { ?s a <http://x/Person> . ?s <http://x/knows> ?o . }`,
		`SELECT ?s ?n WHERE { ?s a <http://x/Person> . ?s <http://x/name> ?n . ?s <http://x/knows> ?o . }`,
		`SELECT ?s WHERE { { ?s a <http://x/Person> . } UNION { ?s <http://x/knows> <http://x/p1> . } }`,
		// Ineligible shapes: paging must still agree with the slow path
		// (these take the materialize-then-page route).
		`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY ?n`,
		`SELECT DISTINCT ?o WHERE { ?s a ?o . }`,
		`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . FILTER (?n != "Person 3"@en) }`,
		`SELECT ?s ?n WHERE { ?s a <http://x/Person> . OPTIONAL { ?s <http://x/name> ?n . } }`,
		`SELECT (COUNT(?s) AS ?c) WHERE { ?s a <http://x/Person> . }`,
	}
	pages := []struct{ limit, offset int }{
		{0, 0}, {1, 0}, {7, 0}, {7, 5}, {10, 115}, {10, 500}, {1000, 0},
	}
	for _, base := range bases {
		full := eval(t, s, base)
		want := rowStrings(full)
		for _, pg := range pages {
			q := fmt.Sprintf("%s LIMIT %d OFFSET %d", base, pg.limit, pg.offset)
			got := rowStrings(eval(t, s, q))
			lo := pg.offset
			if lo > len(want) {
				lo = len(want)
			}
			hi := lo + pg.limit
			if hi > len(want) {
				hi = len(want)
			}
			slice := want[lo:hi]
			if len(got) != len(slice) {
				t.Fatalf("%s: got %d rows, want %d", q, len(got), len(slice))
			}
			for i := range got {
				if got[i] != slice[i] {
					t.Fatalf("%s: row %d = %q, want %q (row-for-row with slow path)", q, i, got[i], slice[i])
				}
			}
		}
	}
}

// TestLimitPushdownStopsEarly pins the point of the pushdown: with no
// ORDER BY/aggregate/DISTINCT/FILTER/OPTIONAL, LIMIT k evaluates work
// proportional to k, not to the full solution set. The Budget callback
// ticks once per intermediate row, so it measures exactly how much the
// join produced.
func TestLimitPushdownStopsEarly(t *testing.T) {
	const n = 3000
	s := buildWide(t, n)
	count := func(src string) int {
		t.Helper()
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		ticks := 0
		if _, err := Eval(s, q, Options{Budget: func() error { ticks++; return nil }}); err != nil {
			t.Fatalf("eval %q: %v", src, err)
		}
		return ticks
	}

	// Single pattern: the scan must stop after offset+limit rows.
	if ticks := count(`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } LIMIT 7 OFFSET 3`); ticks > 10 {
		t.Errorf("single pattern LIMIT 7 OFFSET 3 ticked %d times, want <= 10", ticks)
	}
	// Join: the depth-first pipeline stops every level the moment the
	// slice is satisfied — no per-level materialization — so LIMIT 5 on a
	// two-pattern join costs ~5 driving-scan rows plus ~5 probe rows,
	// independent of n.
	joinQ := `SELECT ?s ?n WHERE { ?s a <http://x/Person> . ?s <http://x/name> ?n . } LIMIT 5`
	full := count(`SELECT ?s ?n WHERE { ?s a <http://x/Person> . ?s <http://x/name> ?n . }`)
	if ticks := count(joinQ); ticks > 20 || ticks >= full {
		t.Errorf("join LIMIT 5 ticked %d times, want <= 20 (full join ticks %d)", ticks, full)
	}
	// Union: later branches must not run once the cap is reached.
	unionQ := `SELECT ?s WHERE { { ?s a <http://x/Person> . } UNION { ?s <http://x/name> ?o . } } LIMIT 4`
	if ticks := count(unionQ); ticks > 4 {
		t.Errorf("union LIMIT 4 ticked %d times, want <= 4", ticks)
	}
	// LIMIT 0 does no more than O(1) work.
	if ticks := count(`SELECT ?s WHERE { ?s a <http://x/Person> . } LIMIT 0`); ticks > 1 {
		t.Errorf("LIMIT 0 ticked %d times, want <= 1", ticks)
	}
	// An ORDER BY query cannot push down: it must see every row.
	if ticks := count(`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY ?n LIMIT 7`); ticks < n {
		t.Errorf("ORDER BY LIMIT ticked %d times, want full materialization (>= %d)", ticks, n)
	}
}

// TestFilterLimitStopsEarly pins that FILTER no longer blocks the
// LIMIT early-exit: filters run inside the streaming pipeline, so a
// filtered scan stops the moment the cap is satisfied instead of
// materializing the full solution set first.
func TestFilterLimitStopsEarly(t *testing.T) {
	const n = 3000
	s := buildWide(t, n)
	count := func(src string) int {
		t.Helper()
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		ticks := 0
		if _, err := Eval(s, q, Options{Budget: func() error { ticks++; return nil }}); err != nil {
			t.Fatalf("eval %q: %v", src, err)
		}
		return ticks
	}
	// Every name passes: one scan tick + one filter tick per emitted row.
	q := `SELECT ?s ?n WHERE { ?s <http://x/name> ?n . FILTER (strlen(str(?n)) > 3) } LIMIT 5`
	if ticks := count(q); ticks > 30 {
		t.Errorf("all-pass FILTER LIMIT 5 ticked %d times, want <= 30 (not ~%d)", ticks, 2*n)
	}
	// A selective filter scans only until enough rows pass (~1 in 10
	// names contains "7" early on), still far below the full sweep.
	q = `SELECT ?s ?n WHERE { ?s <http://x/name> ?n . FILTER (contains(str(?n), "7")) } LIMIT 3`
	if ticks := count(q); ticks > 200 {
		t.Errorf("selective FILTER LIMIT 3 ticked %d times, want <= 200 (not ~%d)", ticks, 2*n)
	}
	// FILTER on a join: the level filter drops rows before the deeper
	// probe, so non-matching driving rows cost one tick, not two.
	q = `SELECT ?s ?n WHERE { ?s a <http://x/Person> . ?s <http://x/name> ?n . FILTER (contains(str(?s), "9")) } LIMIT 2`
	if ticks := count(q); ticks > 100 {
		t.Errorf("join FILTER LIMIT 2 ticked %d times, want <= 100", ticks)
	}
}

// TestLimitZeroShortCircuit pins the LIMIT 0 plan-time answer: a
// non-aggregate query with LIMIT 0 — with or without OFFSET, ORDER BY,
// DISTINCT, UNION, OPTIONAL — returns the empty result set without a
// single budget tick or term resolution. Before the short-circuit,
// `ORDER BY ?n LIMIT 0 OFFSET 5` built a 5-item top-k heap and scanned
// every row just to emit nothing.
func TestLimitZeroShortCircuit(t *testing.T) {
	s := buildWide(t, 500)
	s.BuildOrderLabels()
	shapes := []string{
		`SELECT ?s WHERE { ?s a <http://x/Person> . } LIMIT 0`,
		`SELECT ?s WHERE { ?s a <http://x/Person> . } LIMIT 0 OFFSET 5`,
		`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY ?n LIMIT 0 OFFSET 7`,
		`SELECT DISTINCT ?o WHERE { ?s ?p ?o . } LIMIT 0`,
		`SELECT ?s WHERE { { ?s a <http://x/Person> . } UNION { ?s ?p ?o . } } LIMIT 0`,
		`SELECT ?s ?n WHERE { ?s a <http://x/Person> . OPTIONAL { ?s <http://x/name> ?n . } } LIMIT 0 OFFSET 3`,
	}
	for _, src := range shapes {
		q := MustParse(src)
		cg := &countingGraph{Store: s}
		ticks := 0
		res, err := Eval(cg, q, Options{Budget: func() error { ticks++; return nil }})
		if err != nil {
			t.Fatalf("eval %q: %v", src, err)
		}
		if len(res.Rows) != 0 {
			t.Errorf("%s: got %d rows, want 0", src, len(res.Rows))
		}
		if len(res.Vars) == 0 {
			t.Errorf("%s: projection vars missing from empty result", src)
		}
		if ticks != 0 || cg.resolves != 0 {
			t.Errorf("%s: ticked %d times and resolved %d terms, want 0 and 0", src, ticks, cg.resolves)
		}
	}

	// Aggregates are excluded: COUNT over an empty page is still computed
	// by the aggregation tail (and legitimately scans), then paged to
	// zero rows.
	res := eval(t, s, `SELECT (COUNT(?s) AS ?c) WHERE { ?s a <http://x/Person> . } LIMIT 0`)
	if len(res.Rows) != 0 {
		t.Errorf("aggregate LIMIT 0: got %d rows, want 0", len(res.Rows))
	}
}

// TestUnionLimitStopsSiblingBranches pins that sliceOp's push→false
// verdict propagates across UNION branches, not just up the current
// branch's DFS: with `{A} UNION {B} LIMIT k` where A alone satisfies k,
// branch B — a full-store sweep here — must never start, so the tick
// count stays at k. (runSeq returns false out of the branch loop the
// moment the sink is satisfied; this test keeps it that way.)
func TestUnionLimitStopsSiblingBranches(t *testing.T) {
	const n = 2000
	s := buildWide(t, n) // branch B sweeps 3n triples if it runs
	q := MustParse(`SELECT ?s WHERE { { ?s a <http://x/Person> . } UNION { ?s ?p ?o . } } LIMIT 3`)
	ticks := 0
	res, err := Eval(s, q, Options{Budget: func() error { ticks++; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	if ticks > 3 {
		t.Errorf("ticked %d times, want <= 3 — sibling UNION branch ran after LIMIT was satisfied", ticks)
	}
}

// countingGraph wraps the store and counts ResolveID calls — the
// ID-to-term materializations an evaluation performs. The rest of the
// execution interface is promoted from the embedded store, so the
// wrapped graph takes exactly the same execution path.
type countingGraph struct {
	*store.Store
	noLabels bool // report no rank table, forcing the term-compare path
	resolves int
}

func (c *countingGraph) ResolveID(id uint32) rdf.Term {
	c.resolves++
	return c.Store.ResolveID(id)
}

func (c *countingGraph) OrderLabels() func(uint32) uint64 {
	if c.noLabels {
		return nil
	}
	return c.Store.OrderLabels()
}

// TestOrderByLimitResolvesOnlyK pins the rank-label top-k contract:
// with order labels built, `ORDER BY ?n LIMIT 10` over 10k rows
// compares uint64 labels inside the heap and resolves terms only for
// the k surviving rows — tens of ResolveID calls, not 10 000. Without
// labels the same query resolves a term per buffered row, which is the
// regression this test would catch. The numeric subtest is the state
// every served store is in: one numeric literal interned anywhere must
// not switch the label path off for a key column of names.
func TestOrderByLimitResolvesOnlyK(t *testing.T) {
	const n = 10_000
	q := MustParse(`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY ?n LIMIT 10`)
	for _, tc := range []struct {
		name    string
		numeric bool
	}{{"names", false}, {"numeric-literal-in-store", true}} {
		t.Run(tc.name, func(t *testing.T) {
			s := buildWide(t, n)
			if tc.numeric {
				s.MustAdd(rdf.NewTriple(rdf.NewIRI("http://x/p0"), rdf.NewIRI("http://x/age"),
					rdf.NewTypedLiteral("42", rdf.XSDInteger)))
			}
			s.BuildOrderLabels()

			cg := &countingGraph{Store: s}
			res, err := Eval(cg, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 10 {
				t.Fatalf("rows = %d, want 10", len(res.Rows))
			}
			// 2 columns × 10 rows resolved at collect; allow slack for any
			// stray fallback compares, but stay orders of magnitude below n.
			if cg.resolves > 100 {
				t.Errorf("ORDER BY LIMIT 10 with labels resolved %d terms, want <= 100", cg.resolves)
			}

			// Contrast: with no rank table the heap must fall back to term
			// compares, resolving at least one term per distinct buffered row.
			cg2 := &countingGraph{Store: s, noLabels: true}
			res2, err := Eval(cg2, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if cg2.resolves < n/2 {
				t.Errorf("unlabeled ORDER BY resolved %d terms; expected >= %d — did the label path activate without a rank table?",
					cg2.resolves, n/2)
			}
			if cg.resolves*10 > cg2.resolves {
				t.Errorf("labels saved too little: %d resolves with labels vs %d without", cg.resolves, cg2.resolves)
			}
			if got, want := rowStrings(res), rowStrings(res2); !slices.Equal(got, want) {
				t.Errorf("label page %q != term page %q", got, want)
			}
		})
	}
}

// TestJoinAllocsIndependentOfRows pins that the depth-first join
// allocates nothing per row: a two-pattern join paged by ORDER BY LIMIT
// (so the output, and what collect allocates, stays 10 rows) costs the
// same number of allocations over 1 000 and over 10 000 joined rows.
// A per-row closure or escaping flag in the join would add one or more
// allocations per driving row.
func TestJoinAllocsIndependentOfRows(t *testing.T) {
	q := MustParse(`SELECT ?s ?n WHERE { ?s a <http://x/Person> . ?s <http://x/name> ?n . } ORDER BY ?n LIMIT 10`)
	allocs := func(n int) float64 {
		s := buildWide(t, n)
		// Build the rank table now, so PinRead never starts a background
		// build inside the measured runs.
		s.BuildOrderLabels()
		return testing.AllocsPerRun(20, func() {
			res, err := Eval(s, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 10 {
				t.Fatalf("rows = %d, want 10", len(res.Rows))
			}
		})
	}
	small, large := allocs(1_000), allocs(10_000)
	if large > small+8 {
		t.Errorf("join allocated %.0f times over 10 000 rows vs %.0f over 1 000 — it allocates per row", large, small)
	}
}

// TestOrderByOptionalUnboundKey pins the top-k heap's handling of rows
// whose ORDER BY key is unbound (the var is bound only in an OPTIONAL
// block, and some rows have no match): slot 0 means it.id stays 0, the
// label shortcut must not fire (label(0) would be whatever the rank
// table says about "no term"), and the term fallback compares the zero
// Term — exactly what the full-sort path does with a missing key. The
// heap page must therefore equal the sort-everything page row-for-row,
// ascending and descending, with and without rank labels.
func TestOrderByOptionalUnboundKey(t *testing.T) {
	const n = 60
	s := store.New()
	typ := rdf.NewIRI(rdf.RDFType)
	person := rdf.NewIRI("http://x/Person")
	name := rdf.NewIRI("http://x/name")
	for i := 0; i < n; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/p%02d", i))
		s.MustAdd(rdf.NewTriple(subj, typ, person))
		if i%3 != 0 { // every third subject has no name: unbound key rows
			s.MustAdd(rdf.NewTriple(subj, name, rdf.NewLangLiteral(fmt.Sprintf("Person %02d", i), "en")))
		}
	}
	s.BuildOrderLabels()

	for _, dir := range []string{"?n", "DESC(?n)"} {
		base := fmt.Sprintf(
			`SELECT ?s ?n WHERE { ?s a <http://x/Person> . OPTIONAL { ?s <http://x/name> ?n . } } ORDER BY %s`, dir)
		for _, noLabels := range []bool{false, true} {
			cg := &countingGraph{Store: s, noLabels: noLabels}
			fullRes, err := Eval(cg, MustParse(base), Options{})
			if err != nil {
				t.Fatal(err)
			}
			full := rowStrings(fullRes) // no LIMIT: sortAllOp path
			for _, k := range []int{1, 5, n / 2, n + 10} {
				topRes, err := Eval(cg, MustParse(fmt.Sprintf("%s LIMIT %d", base, k)), Options{})
				if err != nil {
					t.Fatal(err)
				}
				got := rowStrings(topRes) // LIMIT: topKOp path
				want := full
				if k < len(want) {
					want = want[:k]
				}
				if len(got) != len(want) {
					t.Fatalf("ORDER BY %s LIMIT %d (noLabels=%v): %d rows, want %d", dir, k, noLabels, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("ORDER BY %s LIMIT %d (noLabels=%v): row %d = %q, want %q (top-k diverged from full sort on unbound keys)",
							dir, k, noLabels, i, got[i], want[i])
					}
				}
			}
		}
	}
}
