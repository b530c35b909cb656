package federation

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sapphire/internal/endpoint"
	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
	"sapphire/internal/store"
)

// TestFederationDifferentialEquivalence runs the query shapes of the
// sparql package's differential battery (TestDifferentialEquivalence)
// through a federation over one local member, and requires every answer
// to equal the member store's own, row order included. Both evaluations
// are planned by the federation's cardinality estimates: the store's
// exact counts can pick another join order, and an unordered join then
// emits the same rows in another order (the three-pattern join shape
// does). Adds and bulk commits interleave with the queries, so the
// member's epoch moves and the federation replaces its generation
// between batches; every few rounds a manual ResetCaches does the same
// without an epoch move.
func TestFederationDifferentialEquivalence(t *testing.T) {
	for _, numeric := range []bool{false, true} {
		name := "termorder"
		if numeric {
			name = "numeric"
		}
		t.Run(name, func(t *testing.T) {
			// The subtest keeps its "store1-dict1" name from when store
			// and dictionary shard counts were swept beside it.
			t.Run("store1-dict1", func(t *testing.T) {
				fedDiffWorkload(t, numeric)
			})
		})
	}
}

func fedDiffWorkload(t *testing.T, numeric bool) {
	const base = 24
	ctx := context.Background()
	rng := rand.New(rand.NewSource(4242))
	s := store.New()
	for i := 0; i < base; i++ {
		diffAddSubject(s.MustAdd, i, base, numeric)
	}
	s.BuildOrderLabels()
	fed := New(endpoint.NewLocal("member", s, endpoint.Limits{}))
	loader := store.NewBulkLoader(s)
	next := base
	for round := 0; round < 30; round++ {
		for j := 0; j < 5; j++ {
			qs := diffQuery(rng, next, numeric)
			q, err := sparql.Parse(qs)
			if err != nil {
				t.Fatalf("parse %q: %v", qs, err)
			}
			planner := &fedGraph{f: fed, ctx: ctx, gen: fed.checkEpochs(ctx)}
			want, err := sparql.Eval(fedPlanned{s, planner}, q, sparql.Options{})
			if err != nil {
				t.Fatalf("store %q: %v", qs, err)
			}
			got, err := fed.Eval(ctx, q)
			if err != nil {
				t.Fatalf("federation %q: %v", qs, err)
			}
			if gd, wd := dumpOrdered(got), dumpOrdered(want); gd != wd {
				t.Fatalf("round %d: %s\n--- federation ---\n%s\n--- store ---\n%s", round, qs, gd, wd)
			}
		}
		if round%7 == 6 {
			fed.ResetCaches()
		}
		if rng.Intn(2) == 0 {
			diffAddSubject(s.MustAdd, next, next+1, numeric)
			next++
		} else {
			for b := 1 + rng.Intn(3); b > 0; b-- {
				diffAddSubject(loader.MustAdd, next, next+1, numeric)
				next++
			}
			loader.Commit()
		}
	}
}

// fedPlanned is the member store with the federation's cardinality
// estimates, so the store's evaluation picks the federation's join
// order. The estimates are read before the federation's own Eval, which
// sees the same generation and so the same cache sizes.
type fedPlanned struct {
	*store.Store
	est *fedGraph
}

func (g fedPlanned) CardinalityEstimate(s, p, o rdf.Term) int {
	return g.est.CardinalityEstimate(s, p, o)
}

// diffAddSubject adds subject i the way the sparql battery's store is
// seeded: typed, named except every 4th (so OPTIONAL has unmatched
// rows), one knows edge, and an integer age when numeric is true.
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

// diffQuery draws from the sparql battery's pool of query shapes:
// FILTER, OPTIONAL, DISTINCT, ORDER BY, LIMIT/OFFSET, UNION,
// aggregates, joins and point lookups that hit and miss.
func diffQuery(rng *rand.Rand, n int, numeric bool) string {
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

// dumpOrdered renders results order-sensitively: a row swap changes
// the dump.
func dumpOrdered(res *sparql.Results) string {
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
