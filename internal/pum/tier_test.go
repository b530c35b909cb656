package pum

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"sapphire/internal/bootstrap"
	"sapphire/internal/endpoint"
	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

// displayLiteral is a cached literal equal to the display name of the
// predicate http://x/birthPlace.
const displayLiteral = "birth place"

// flatCache initializes a cache over a flat dataset of twenty labelled
// things plus extra, with at most one significant literal.
func flatCache(t *testing.T, name string, extra ...rdf.Triple) *bootstrap.Cache {
	t.Helper()
	s := store.New()
	label := rdf.NewIRI("http://x/label")
	for i := 0; i < 20; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/%s%d", name, i))
		s.MustAdd(rdf.NewTriple(subj, rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://x/Thing")))
		s.MustAdd(rdf.NewTriple(subj, label, rdf.NewLangLiteral(fmt.Sprintf("Thing %s %d", name, i), "en")))
	}
	for _, tr := range extra {
		s.MustAdd(tr)
	}
	cfg := bootstrap.DefaultConfig()
	cfg.SuffixTreeCapacity = 1
	c, err := bootstrap.Initialize(context.Background(), endpoint.NewLocal(name, s, endpoint.Limits{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// completeAll answers every prefix of every cached literal and predicate
// display name.
func completeAll(p *PUM) map[string][]Completion {
	strs := p.cache.Literals()
	for _, pred := range p.cache.Predicates {
		strs = append(strs, bootstrap.DisplayName(pred))
	}
	out := make(map[string][]Completion)
	for _, s := range strs {
		r := []rune(s)
		for n := 1; n <= len(r); n++ {
			out[string(r[:n])] = p.Complete(string(r[:n]))
		}
	}
	return out
}

// TestDisplayNameLiteralIsTreeTier: a cached literal equal to a
// predicate display name belongs to the tree tier. It is completed once,
// as a tree match; the residual search never returns it; the literal
// alternative search returns it once; and all of this, with every
// /complete answer, survives Save/Load and MergeCaches. The merged cache
// takes the predicate from one endpoint and the literal from another,
// where it was residual.
func TestDisplayNameLiteralIsTreeTier(t *testing.T) {
	birthPlace := rdf.NewIRI("http://x/birthPlace")
	label := rdf.NewIRI("http://x/label")
	withPred := rdf.NewTriple(rdf.NewIRI("http://x/p0"), birthPlace, rdf.NewIRI("http://x/p1"))
	withLit := func(name string) rdf.Triple {
		return rdf.NewTriple(rdf.NewIRI("http://x/"+name+"0"), label, rdf.NewLangLiteral(displayLiteral, "en"))
	}
	both := flatCache(t, "both", withPred, withLit("both"))
	if len(both.Bins.Tree()) != both.Stats.SignificantCount+1 {
		t.Fatalf("tree tier %q holds no literal beyond the %d significant one(s); the display-name rule is not exercised", both.Bins.Tree(), both.Stats.SignificantCount)
	}
	litOnly := flatCache(t, "lit", withLit("lit"))
	if litOnly.InSuffixTree(displayLiteral) {
		t.Fatalf("%q is tree tier without a predicate displayed as it; the merge is not exercised", displayLiteral)
	}
	merged := bootstrap.MergeCaches(flatCache(t, "pred", withPred), litOnly)

	roundTrip := func(c *bootstrap.Cache) *bootstrap.Cache {
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := bootstrap.Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return loaded
	}
	for name, c := range map[string]*bootstrap.Cache{"initialized": both, "merged": merged} {
		p := New(c, nil, nil, DefaultConfig())
		loaded := New(roundTrip(c), nil, nil, DefaultConfig())
		for _, q := range []*PUM{p, loaded} {
			if !q.cache.Bins.InTree(displayLiteral) || !q.cache.InSuffixTree(displayLiteral) {
				t.Fatalf("%s: %q is not tree tier", name, displayLiteral)
			}
			got := q.Complete(displayLiteral)
			want := []Completion{{Text: displayLiteral, IsPredicate: true, FromTree: true}}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Complete(%q) = %+v, want %+v", name, displayLiteral, got, want)
			}
			for _, pat := range []string{"bi", "birth", displayLiteral} {
				for _, res := range [][]string{
					q.cache.Bins.SearchSubstring(pat, 0, 100, 2, 0),
					q.cache.Bins.ScanSubstring(pat, 0, 100, 2, 0),
				} {
					if slices.Contains(res, displayLiteral) {
						t.Fatalf("%s: residual search for %q returned %q", name, pat, displayLiteral)
					}
				}
			}
			n := 0
			for _, m := range q.similarLiterals(displayLiteral) {
				if m.Literal == displayLiteral {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("%s: similarLiterals(%q) holds it %d times, want once", name, displayLiteral, n)
			}
		}
		before, after := completeAll(p), completeAll(loaded)
		if len(before) == 0 {
			t.Fatalf("%s: no terms", name)
		}
		for term, want := range before {
			if got := after[term]; !slices.Equal(got, want) {
				t.Fatalf("%s: Complete(%q) after Save/Load = %+v, before %+v", name, term, got, want)
			}
		}
	}
}
