package store

import (
	"testing"

	"sapphire/internal/rdf"
)

func TestLookupResolveRoundTrip(t *testing.T) {
	s := buildSample(t)
	for _, term := range []rdf.Term{
		iri("alice"), iri("knows"), iri("bob"), lit("Alice"),
		rdf.NewTypedLiteral("30", rdf.XSDInteger),
	} {
		id, ok := s.Lookup(term)
		if !ok {
			t.Fatalf("Lookup(%v) not found", term)
		}
		if id == Wildcard {
			t.Fatalf("Lookup(%v) returned the Wildcard ID", term)
		}
		if got := s.ResolveID(id); got != term {
			t.Errorf("ResolveID(Lookup(%v)) = %v", term, got)
		}
	}
}

func TestLookupMissing(t *testing.T) {
	s := buildSample(t)
	if id, ok := s.Lookup(iri("nobody")); ok {
		t.Errorf("Lookup of absent term = (%d, true)", id)
	}
	if got := s.ResolveID(Wildcard); !got.IsZero() {
		t.Errorf("ResolveID(Wildcard) = %v, want zero", got)
	}
	if got := s.ResolveID(1 << 30); !got.IsZero() {
		t.Errorf("ResolveID(out of range) = %v, want zero", got)
	}
}

func TestLookupDoesNotIntern(t *testing.T) {
	s := buildSample(t)
	if _, ok := s.Lookup(iri("ghost")); ok {
		t.Fatal("ghost present before lookup")
	}
	if _, ok := s.Lookup(iri("ghost")); ok {
		t.Error("Lookup interned the term")
	}
}

// TestMatchIDsAgainstMatch cross-checks the ID-level match against the
// Term-level one for every pattern shape.
func TestMatchIDsAgainstMatch(t *testing.T) {
	s := buildSample(t)
	var z rdf.Term
	patterns := [][3]rdf.Term{
		{z, z, z},
		{iri("alice"), z, z},
		{z, iri("knows"), z},
		{z, z, iri("carol")},
		{iri("alice"), iri("knows"), z},
		{iri("alice"), z, iri("bob")},
		{z, iri("knows"), iri("carol")},
		{iri("alice"), iri("knows"), iri("bob")},
	}
	for _, pat := range patterns {
		want := s.MatchSlice(pat[0], pat[1], pat[2])
		si, pi, oi, ok := s.patternIDs(pat[0], pat[1], pat[2])
		if !ok {
			t.Fatalf("patternIDs(%v) not resolvable", pat)
		}
		var got []rdf.Triple
		s.MatchIDs(si, pi, oi, func(a, b, c ID) bool {
			got = append(got, rdf.Triple{S: s.ResolveID(a), P: s.ResolveID(b), O: s.ResolveID(c)})
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("pattern %v: MatchIDs %d results, Match %d", pat, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("pattern %v: result %d = %v, want %v (order must agree)", pat, i, got[i], want[i])
			}
		}
	}
}

func TestCountIDs(t *testing.T) {
	s := buildSample(t)
	knows, _ := s.Lookup(iri("knows"))
	alice, _ := s.Lookup(iri("alice"))
	bob, _ := s.Lookup(iri("bob"))
	cases := []struct {
		s, p, o ID
		want    int
	}{
		{alice, knows, bob, 1},
		{alice, knows, Wildcard, 2},
		{alice, Wildcard, Wildcard, 3},
		{alice, Wildcard, bob, 1},
		{Wildcard, knows, Wildcard, 3},
		{Wildcard, Wildcard, bob, 1},
		{Wildcard, Wildcard, Wildcard, 7},
		{bob, knows, bob, 0},
	}
	for _, tc := range cases {
		if got := s.CountIDs(tc.s, tc.p, tc.o); got != tc.want {
			t.Errorf("CountIDs(%d,%d,%d) = %d, want %d", tc.s, tc.p, tc.o, got, tc.want)
		}
		if got := s.CountIDs(tc.s, tc.p, tc.o); got != tc.want {
			t.Errorf("CountIDs(%d,%d,%d) = %d, want %d", tc.s, tc.p, tc.o, got, tc.want)
		}
	}
}

// TestCountMatchesMatchExactly pins the Count/CardinalityEstimate shared
// implementation to the Match semantics on a randomized graph.
func TestCountMatchesMatchExactly(t *testing.T) {
	s := buildSample(t)
	var z rdf.Term
	patterns := [][3]rdf.Term{
		{z, z, z},
		{iri("alice"), z, z},
		{z, iri("name"), z},
		{z, z, lit("Carol")},
		{iri("bob"), iri("name"), z},
		{iri("carol"), z, lit("Carol")},
		{z, iri("name"), lit("Bob")},
		{iri("alice"), iri("knows"), iri("carol")},
		{iri("nobody"), z, z},
	}
	for _, pat := range patterns {
		want := len(s.MatchSlice(pat[0], pat[1], pat[2]))
		if got := s.Count(pat[0], pat[1], pat[2]); got != want {
			t.Errorf("Count(%v) = %d, want %d", pat, got, want)
		}
		if got := s.CardinalityEstimate(pat[0], pat[1], pat[2]); got != want {
			t.Errorf("CardinalityEstimate(%v) = %d, want %d", pat, got, want)
		}
	}
}

// TestSortedKeyInvariant checks that the incrementally maintained key
// slices stay term-sorted under adversarial insertion orders.
func TestSortedKeyInvariant(t *testing.T) {
	s := New()
	// Insert in reverse lexical order to stress the insertion sort.
	for i := 25; i >= 0; i-- {
		c := string(rune('a' + i))
		s.MustAdd(tri(iri("s"+c), iri("p"+c), lit("o"+c)))
	}
	checkSorted := func(name string, terms []rdf.Term) {
		for i := 1; i < len(terms); i++ {
			if terms[i-1].Compare(terms[i]) >= 0 {
				t.Fatalf("%s not sorted at %d: %v >= %v", name, i, terms[i-1], terms[i])
			}
		}
	}
	checkSorted("Match subjects", subjects(s))
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, x := range []struct {
		name string
		idx  index
	}{{"spo", s.spo}, {"pos", s.pos}, {"osp", s.osp}} {
		checkSorted(x.name+" level-1", s.resolveAll(x.idx.keys))
		if len(x.idx.keys) != len(x.idx.m) {
			t.Fatalf("%s level-1: %d keys vs %d map slots",
				x.name, len(x.idx.keys), len(x.idx.m))
		}
		for id, e := range x.idx.m {
			checkSorted(x.name+" level-2", s.resolveAll(e.keys))
			if len(e.keys) != len(e.lists) || len(e.keys) != len(e.m) {
				t.Fatalf("%s entry %d: %d keys vs %d lists vs %d map slots",
					x.name, id, len(e.keys), len(e.lists), len(e.m))
			}
			for i, b := range e.keys {
				if e.lists[i] != e.m[b] {
					t.Fatalf("%s entry %d: lists[%d] does not back keys[%d]", x.name, id, i, i)
				}
			}
			if x.idx.sortedInner {
				for b, lst := range e.m {
					checkSorted(x.name+" innermost", s.resolveAll(*lst))
					_ = b
				}
			}
		}
	}
}

// resolveAll maps a (term-sorted) ID slice to its terms.
func (s *Store) resolveAll(ids []ID) []rdf.Term {
	tv := s.dict.view()
	out := make([]rdf.Term, len(ids))
	for i, id := range ids {
		out[i] = tv.at(id)
	}
	return out
}
