package bootstrap

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"sapphire/internal/datagen"
	"sapphire/internal/endpoint"
)

func TestWarehouseInitialization(t *testing.T) {
	d := datagen.Generate(datagen.SmallConfig())
	ep := endpoint.NewLocal("warehouse", d.Store, endpoint.Limits{})
	c, err := InitializeWarehouse(context.Background(), ep, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.LiteralCount == 0 || c.Stats.PredicateCount == 0 {
		t.Fatalf("warehouse cache empty: %+v", c.Stats)
	}
	// The warehouse path must cache the same famous literals as the
	// federated path.
	for _, want := range []string{"Jack Kerouac", "Viking Press", "Sydney"} {
		if _, ok := c.LiteralTerm(want); !ok {
			t.Errorf("warehouse cache missing %q", want)
		}
	}
	// No class-hierarchy walking: far fewer queries than the federated
	// path.
	fedCache, err := Initialize(context.Background(),
		endpoint.NewLocal("fed", d.Store, endpoint.Limits{}), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.QueriesIssued >= fedCache.Stats.QueriesIssued {
		t.Errorf("warehouse issued %d queries, federated %d — warehouse should be cheaper",
			c.Stats.QueriesIssued, fedCache.Stats.QueriesIssued)
	}
}

func TestWarehouseMatchesFederatedLiterals(t *testing.T) {
	d := datagen.Generate(datagen.SmallConfig())
	wh, err := InitializeWarehouse(context.Background(),
		endpoint.NewLocal("wh", d.Store, endpoint.Limits{}), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fed, err := Initialize(context.Background(),
		endpoint.NewLocal("fed", d.Store, endpoint.Limits{}), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The warehouse sees at least everything the hierarchy walk saw
	// (Q9 has no type restriction, so it is a superset).
	for _, lex := range fed.Literals() {
		if _, ok := wh.LiteralTerm(lex); !ok {
			t.Errorf("warehouse missing federated literal %q", lex)
		}
	}
}

func TestWarehouseBudget(t *testing.T) {
	d := datagen.Generate(datagen.SmallConfig())
	cfg := DefaultConfig()
	cfg.QueryBudget = 3
	c, err := InitializeWarehouse(context.Background(),
		endpoint.NewLocal("wh", d.Store, endpoint.Limits{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.QueriesIssued > 3 {
		t.Errorf("issued %d queries over budget", c.Stats.QueriesIssued)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := datagen.Generate(datagen.SmallConfig())
	ep := endpoint.NewLocal("synthetic-dbpedia", d.Store, endpoint.Limits{})
	orig, err := Initialize(context.Background(), ep, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Endpoint != orig.Endpoint {
		t.Errorf("endpoint = %q", loaded.Endpoint)
	}
	if len(loaded.Predicates) != len(orig.Predicates) {
		t.Fatalf("predicates = %d, want %d", len(loaded.Predicates), len(orig.Predicates))
	}
	if loaded.Stats.LiteralCount != orig.Stats.LiteralCount {
		t.Errorf("literal count = %d, want %d", loaded.Stats.LiteralCount, orig.Stats.LiteralCount)
	}
	// Lookup behaviour must be identical.
	for _, term := range []string{"Kerouac", "alma", "Austral"} {
		a := orig.Tree.Search(term, 10)
		b := loaded.Tree.Search(term, 10)
		if len(a) != len(b) {
			t.Errorf("tree search %q: %d vs %d results", term, len(a), len(b))
		}
	}
	lt, ok := loaded.LiteralTerm("Jack Kerouac")
	if !ok || lt.Lang != "en" {
		t.Errorf("loaded literal term = %+v, %v", lt, ok)
	}
	if !loaded.IsPredicateDisplay("alma mater") {
		t.Error("loaded cache lost predicate displays")
	}
	// Residual partition preserved.
	if loaded.Bins.Len() != orig.Bins.Len() {
		t.Errorf("bins = %d, want %d", loaded.Bins.Len(), orig.Bins.Len())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("future version accepted")
	}
}
