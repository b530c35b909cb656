package bootstrap

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sapphire/internal/datagen"
	"sapphire/internal/endpoint"
	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

func initSmall(t testing.TB, limits endpoint.Limits, cfg Config) (*Cache, *endpoint.Local) {
	t.Helper()
	d := datagen.Generate(datagen.SmallConfig())
	ep := endpoint.NewLocal("synthetic-dbpedia", d.Store, limits)
	c, err := Initialize(context.Background(), ep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, ep
}

func TestInitializeBasic(t *testing.T) {
	c, _ := initSmall(t, endpoint.Limits{}, DefaultConfig())
	if c.Stats.PredicateCount == 0 {
		t.Fatal("no predicates cached")
	}
	if c.Stats.LiteralCount == 0 {
		t.Fatal("no literals cached")
	}
	if !c.Stats.UsedHierarchy {
		t.Error("dataset has a hierarchy; initialization should use it")
	}
	if c.Tree == nil || c.Bins == nil {
		t.Fatal("cache indexes missing")
	}
	// All predicates are indexed in the tree (paper: predicates are few,
	// index them all).
	for _, p := range c.Predicates {
		d := DisplayName(p)
		if !c.InSuffixTree(d) {
			t.Errorf("predicate display %q not in suffix tree", d)
		}
	}
}

func TestInitializeRespectsLengthCap(t *testing.T) {
	c, _ := initSmall(t, endpoint.Limits{}, DefaultConfig())
	for _, lex := range c.Literals() {
		if len([]rune(lex)) >= 80 {
			t.Errorf("cached literal exceeds cap: %q (%d runes)", lex, len([]rune(lex)))
		}
	}
}

func TestInitializeRespectsLanguage(t *testing.T) {
	c, _ := initSmall(t, endpoint.Limits{}, DefaultConfig())
	for _, lex := range c.Literals() {
		term, ok := c.LiteralTerm(lex)
		if !ok {
			t.Fatalf("LiteralTerm(%q) missing", lex)
		}
		if term.Lang != "en" {
			t.Errorf("cached non-English literal %q (lang %q)", lex, term.Lang)
		}
	}
}

func TestInitializeCachesKnownLiterals(t *testing.T) {
	c, _ := initSmall(t, endpoint.Limits{}, DefaultConfig())
	for _, want := range []string{"Jack Kerouac", "Viking Press", "Sydney", "Frank The Tank"} {
		if _, ok := c.LiteralTerm(want); !ok {
			t.Errorf("known literal %q not cached", want)
		}
	}
}

func TestInitializeSignificantLiterals(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SuffixTreeCapacity = 50
	c, _ := initSmall(t, endpoint.Limits{}, cfg)
	if c.Stats.SignificantCount == 0 {
		t.Fatal("no significant literals identified")
	}
	if c.Stats.SignificantCount > 50 {
		t.Errorf("significant count %d exceeds capacity", c.Stats.SignificantCount)
	}
	// Country names are highly significant (many incoming country/
	// birthPlace edges); they should be in the tree rather than bins.
	found := false
	for _, m := range c.Tree.Search("United States", 5) {
		if m.Value == "United States" {
			found = true
		}
	}
	if !found {
		// Australia etc. also acceptable; require at least one country.
		for _, name := range []string{"Australia", "Canada", "India"} {
			if len(c.Tree.Search(name, 1)) > 0 {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("no high-significance country literal made it into the tree")
	}
}

func TestInitializeResidualPartition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SuffixTreeCapacity = 10
	c, _ := initSmall(t, endpoint.Limits{}, cfg)
	// Residual + significant = all cached literals.
	if got := c.Stats.ResidualCount + c.Stats.SignificantCount; got != c.Stats.LiteralCount {
		t.Errorf("partition broken: residual %d + significant %d != literals %d",
			c.Stats.ResidualCount, c.Stats.SignificantCount, c.Stats.LiteralCount)
	}
	if c.Stats.BinCount == 0 {
		t.Error("no residual bins")
	}
}

func TestInitializeWithTimeouts(t *testing.T) {
	// Constrained endpoint: root-class queries time out, forcing descent
	// into subclasses — the core Section 5 behaviour.
	limits := endpoint.Limits{MaxIntermediateRows: 220}
	c, ep := initSmall(t, limits, DefaultConfig())
	if c.Stats.Timeouts == 0 {
		t.Error("expected timeouts under a constrained endpoint")
	}
	if c.Stats.LiteralCount == 0 {
		t.Error("descent failed to recover literals after timeouts")
	}
	if ep.Stats().Timeouts == 0 {
		t.Error("endpoint saw no timeouts")
	}
	// Despite timeouts, the famous literals must still be cached via
	// leaf classes.
	if _, ok := c.LiteralTerm("Jack Kerouac"); !ok {
		t.Error("literal lost to timeout: Jack Kerouac")
	}
}

func TestInitializeQueryBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueryBudget = 25
	c, ep := initSmall(t, endpoint.Limits{}, cfg)
	if !c.Stats.BudgetExhausted {
		t.Error("budget should be exhausted")
	}
	if got := ep.Stats().Queries; got > 25 {
		t.Errorf("endpoint served %d queries, budget was 25", got)
	}
	// Frequent predicates are prioritized, so some literals still cached.
	if c.Stats.QueriesIssued > 25 {
		t.Errorf("issued %d > budget", c.Stats.QueriesIssued)
	}
}

func TestInitializeNoHierarchyFallback(t *testing.T) {
	// A flat dataset without rdfs:subClassOf: Q3 types drive retrieval.
	s := store.New()
	typ := rdf.NewIRI(rdf.RDFType)
	name := rdf.NewIRI("http://x/name")
	for i := 0; i < 30; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/e%d", i))
		s.MustAdd(rdf.NewTriple(subj, typ, rdf.NewIRI("http://x/Thing")))
		s.MustAdd(rdf.NewTriple(subj, name, rdf.NewLangLiteral(fmt.Sprintf("entity %d", i), "en")))
	}
	ep := endpoint.NewLocal("flat", s, endpoint.Limits{})
	c, err := Initialize(context.Background(), ep, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.UsedHierarchy {
		t.Error("flat dataset should not use hierarchy")
	}
	if c.Stats.LiteralCount != 30 {
		t.Errorf("literals = %d, want 30", c.Stats.LiteralCount)
	}
}

// TestInitializeSubclassCycle pins initialization over a hierarchy in
// which every class has a parent: A ⊂ B ⊂ A has no parentless root, so
// Q2's builder must still give the walk a way in.
func TestInitializeSubclassCycle(t *testing.T) {
	s := store.New()
	typ, sub := rdf.NewIRI(rdf.RDFType), rdf.NewIRI(rdf.RDFSSubClassOf)
	a, b := rdf.NewIRI("http://x/A"), rdf.NewIRI("http://x/B")
	for _, c := range []rdf.Term{a, b} {
		s.MustAdd(rdf.NewTriple(c, typ, rdf.NewIRI(rdf.OWLClass)))
	}
	s.MustAdd(rdf.NewTriple(a, sub, b))
	s.MustAdd(rdf.NewTriple(b, sub, a))
	name := rdf.NewIRI("http://x/name")
	for i := 0; i < 30; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/e%d", i))
		s.MustAdd(rdf.NewTriple(subj, typ, a))
		s.MustAdd(rdf.NewTriple(subj, name, rdf.NewLangLiteral(fmt.Sprintf("entity %d", i), "en")))
	}
	c, err := Initialize(context.Background(), endpoint.NewLocal("cycle", s, endpoint.Limits{}), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !c.Stats.UsedHierarchy {
		t.Error("dataset has a hierarchy; initialization should use it")
	}
	if c.Stats.LiteralCount != 30 {
		t.Errorf("literals = %d, want 30", c.Stats.LiteralCount)
	}
}

// hierarchyOf runs the Q2 builder over a store holding the given
// (subclass, superclass) edges, every subclass typed owl:Class.
func hierarchyOf(t *testing.T, edges ...[2]string) *classHierarchy {
	t.Helper()
	s := store.New()
	typ, sub := rdf.NewIRI(rdf.RDFType), rdf.NewIRI(rdf.RDFSSubClassOf)
	for _, e := range edges {
		c := iri(e[0])
		s.MustAdd(rdf.NewTriple(c, typ, rdf.NewIRI(rdf.OWLClass)))
		s.MustAdd(rdf.NewTriple(c, sub, iri(e[1])))
	}
	in := &initializer{ctx: context.Background(), ep: endpoint.NewLocal("h", s, endpoint.Limits{}), cfg: DefaultConfig()}
	h, err := in.fetchHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func iri(name string) rdf.Term { return rdf.NewIRI("http://x/" + name) }

func TestHierarchy(t *testing.T) {
	h := hierarchyOf(t,
		[2]string{"Politician", "Person"}, [2]string{"MovieDirector", "Person"},
		[2]string{"Senator", "Politician"}, [2]string{"City", "Place"})
	if len(h.roots) != 2 || h.roots[0] != iri("Person") || h.roots[1] != iri("Place") {
		t.Fatalf("roots = %v, want [Person Place]", h.roots)
	}

	// walk visits breadth-first: the roots, then their children in
	// term order, then theirs; a failed visit (false) descends.
	var order []string
	h.walk(func(c rdf.Term) (bool, error) {
		order = append(order, c.Value[len("http://x/"):])
		return false, nil
	})
	if got, want := strings.Join(order, " "), "Person Place MovieDirector Politician City Senator"; got != want {
		t.Errorf("walk order = %s, want %s", got, want)
	}

	// Pruning: a success at Person skips everything under it.
	visited := 0
	h.walk(func(c rdf.Term) (bool, error) {
		visited++
		return c == iri("Person"), nil
	})
	if visited != 3 { // Person, Place, City — nothing under Person
		t.Errorf("pruned walk visited %d classes, want 3", visited)
	}

	// The first error ends the walk and is returned.
	boom := errors.New("boom")
	visited = 0
	err := h.walk(func(rdf.Term) (bool, error) {
		visited++
		return false, boom
	})
	if err != boom || visited != 1 {
		t.Errorf("walk after an error: err %v, visited %d; want boom, 1", err, visited)
	}
}

func TestHierarchyEmpty(t *testing.T) {
	if h := hierarchyOf(t); h != nil {
		t.Errorf("dataset without subClassOf has hierarchy %+v", h)
	}
	(&classHierarchy{}).walk(func(rdf.Term) (bool, error) {
		t.Error("walk visited a class in an empty hierarchy")
		return false, nil
	})
}

func TestHierarchyCycleSafe(t *testing.T) {
	h := hierarchyOf(t, [2]string{"A", "B"}, [2]string{"B", "A"}, [2]string{"C", "A"})
	// No class is parentless: the least class of the cycle is the root.
	if len(h.roots) != 1 || h.roots[0] != iri("A") {
		t.Fatalf("roots = %v, want [A]", h.roots)
	}
	n := 0
	h.walk(func(rdf.Term) (bool, error) {
		n++
		return n >= 100, nil
	})
	if n != 3 {
		t.Errorf("walk visited %d classes, want each of A, B, C once", n)
	}
}

func TestInitializePagination(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageSize = 7 // force many pages
	c, _ := initSmall(t, endpoint.Limits{}, cfg)
	full, _ := initSmall(t, endpoint.Limits{}, DefaultConfig())
	// Page size must not change what is cached.
	if c.Stats.LiteralCount != full.Stats.LiteralCount {
		t.Errorf("pagination changed literal count: %d vs %d",
			c.Stats.LiteralCount, full.Stats.LiteralCount)
	}
	if c.Stats.LiteralQueries <= full.Stats.LiteralQueries {
		t.Errorf("small pages should issue more queries: %d vs %d",
			c.Stats.LiteralQueries, full.Stats.LiteralQueries)
	}
}

func TestDisplayName(t *testing.T) {
	cases := map[string]string{
		rdf.NSDBO + "almaMater":     "alma mater",
		rdf.NSDBO + "numberOfPages": "number of pages",
		rdf.NSDBO + "name":          "name",
		rdf.RDFSLabel:               "label",
		rdf.RDFType:                 "type",
		"plain":                     "plain",
	}
	for iri, want := range cases {
		if got := DisplayName(rdf.NewIRI(iri)); got != want {
			t.Errorf("DisplayName(%q) = %q, want %q", iri, got, want)
		}
	}
}

func TestPredicatesForRoundTrip(t *testing.T) {
	c, _ := initSmall(t, endpoint.Limits{}, DefaultConfig())
	preds := c.PredicatesFor("alma mater")
	if len(preds) != 1 || preds[0].Value != rdf.NSDBO+"almaMater" {
		t.Errorf("PredicatesFor(alma mater) = %v", preds)
	}
	if !c.IsPredicateDisplay("alma mater") {
		t.Error("IsPredicateDisplay(alma mater) = false")
	}
	if c.IsPredicateDisplay("not a predicate") {
		t.Error("IsPredicateDisplay(not a predicate) = true")
	}
}

func TestWarehouseQueriesParse(t *testing.T) {
	// Q9/Q10 are documented alternatives; they must at least parse and
	// run against an unconstrained endpoint.
	d := datagen.Generate(datagen.SmallConfig())
	ep := endpoint.NewLocal("wh", d.Store, endpoint.Limits{})
	for _, q := range []string{
		QueryWarehouseLiterals("en", 80, 100, 0),
		QueryWarehouseSignificant("en", 80, 100, 0),
	} {
		if _, err := ep.Query(context.Background(), q); err != nil {
			t.Errorf("warehouse query failed: %v\n%s", err, q)
		}
	}
}
