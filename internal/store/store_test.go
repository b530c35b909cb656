package store

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sapphire/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }
func lit(s string) rdf.Term { return rdf.NewLiteral(s) }
func tri(s, p, o rdf.Term) rdf.Triple {
	return rdf.NewTriple(s, p, o)
}

func TestAddAndContains(t *testing.T) {
	s := New()
	tr := tri(iri("s"), iri("p"), lit("o"))
	added, err := s.Add(tr)
	if err != nil || !added {
		t.Fatalf("Add = (%v, %v), want (true, nil)", added, err)
	}
	if !s.Contains(tr) {
		t.Error("Contains after Add = false")
	}
	added, err = s.Add(tr)
	if err != nil || added {
		t.Errorf("duplicate Add = (%v, %v), want (false, nil)", added, err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestAddInvalid(t *testing.T) {
	s := New()
	if _, err := s.Add(tri(lit("bad"), iri("p"), iri("o"))); err == nil {
		t.Error("literal subject accepted")
	}
	if _, err := s.Add(rdf.Triple{S: iri("s"), P: iri("p")}); err == nil {
		t.Error("zero object accepted")
	}
}

func TestMustAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAdd did not panic on invalid triple")
		}
	}()
	New().MustAdd(tri(lit("bad"), iri("p"), iri("o")))
}

// buildSample creates a small fixed graph used across match tests.
func buildSample(t testing.TB) *Store {
	t.Helper()
	s := New()
	data := []rdf.Triple{
		tri(iri("alice"), iri("knows"), iri("bob")),
		tri(iri("alice"), iri("knows"), iri("carol")),
		tri(iri("alice"), iri("name"), lit("Alice")),
		tri(iri("bob"), iri("knows"), iri("carol")),
		tri(iri("bob"), iri("name"), lit("Bob")),
		tri(iri("carol"), iri("name"), lit("Carol")),
		tri(iri("carol"), iri("age"), rdf.NewTypedLiteral("30", rdf.XSDInteger)),
	}
	if err := s.AddAll(data); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMatchShapes(t *testing.T) {
	s := buildSample(t)
	var z rdf.Term
	tests := []struct {
		name    string
		s, p, o rdf.Term
		want    int
	}{
		{"SPO exact", iri("alice"), iri("knows"), iri("bob"), 1},
		{"SP?", iri("alice"), iri("knows"), z, 2},
		{"S??", iri("alice"), z, z, 3},
		{"S?O", iri("alice"), z, iri("bob"), 1},
		{"?PO", z, iri("knows"), iri("carol"), 2},
		{"?P?", z, iri("name"), z, 3},
		{"??O", z, z, iri("carol"), 2},
		{"???", z, z, z, 7},
		{"miss subject", iri("nobody"), z, z, 0},
		{"miss predicate", z, iri("nothing"), z, 0},
		{"miss object", z, z, lit("nope"), 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := len(s.MatchSlice(tc.s, tc.p, tc.o))
			if got != tc.want {
				t.Errorf("match(%v,%v,%v) = %d results, want %d", tc.s, tc.p, tc.o, got, tc.want)
			}
			if c := s.Count(tc.s, tc.p, tc.o); c != tc.want {
				t.Errorf("Count = %d, want %d", c, tc.want)
			}
		})
	}
}

func TestMatchEarlyStop(t *testing.T) {
	s := buildSample(t)
	n := 0
	s.Match(rdf.Term{}, rdf.Term{}, rdf.Term{}, func(rdf.Triple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d, want 3", n)
	}
}

func TestMatchDeterministic(t *testing.T) {
	s := buildSample(t)
	a := s.MatchSlice(rdf.Term{}, rdf.Term{}, rdf.Term{})
	b := s.MatchSlice(rdf.Term{}, rdf.Term{}, rdf.Term{})
	if len(a) != len(b) {
		t.Fatal("nondeterministic lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCardinalityEstimate(t *testing.T) {
	s := buildSample(t)
	var z rdf.Term
	cases := []struct {
		s, p, o rdf.Term
		want    int
	}{
		{iri("alice"), iri("knows"), z, 2},
		{iri("alice"), z, z, 3},
		{z, iri("knows"), iri("carol"), 2},
		{z, iri("name"), z, 3},
		{z, z, iri("carol"), 2},
		{z, z, z, 7},
	}
	for _, tc := range cases {
		if got := s.CardinalityEstimate(tc.s, tc.p, tc.o); got != tc.want {
			t.Errorf("estimate(%v,%v,%v) = %d, want %d", tc.s, tc.p, tc.o, got, tc.want)
		}
	}
}

func TestSubjectsPredicates(t *testing.T) {
	s := buildSample(t)
	if got := len(subjects(s)); got != 3 {
		t.Errorf("Subjects = %d, want 3", got)
	}
	if got := len(predicates(s)); got != 3 {
		t.Errorf("Predicates = %d, want 3", got)
	}
}

// TestMatchAgainstNaive cross-checks indexed matching against a brute
// force scan on a randomized graph — the core store invariant.
func TestMatchAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	var all []rdf.Triple
	subjects := make([]rdf.Term, 20)
	preds := make([]rdf.Term, 5)
	objs := make([]rdf.Term, 30)
	for i := range subjects {
		subjects[i] = iri(fmt.Sprintf("s%d", i))
	}
	for i := range preds {
		preds[i] = iri(fmt.Sprintf("p%d", i))
	}
	for i := range objs {
		if i%2 == 0 {
			objs[i] = lit(fmt.Sprintf("o%d", i))
		} else {
			objs[i] = iri(fmt.Sprintf("o%d", i))
		}
	}
	for i := 0; i < 400; i++ {
		tr := tri(subjects[rng.Intn(len(subjects))], preds[rng.Intn(len(preds))], objs[rng.Intn(len(objs))])
		if added, err := s.Add(tr); err != nil {
			t.Fatal(err)
		} else if added {
			all = append(all, tr)
		}
	}
	naive := func(sub, pred, obj rdf.Term) map[rdf.Triple]bool {
		got := make(map[rdf.Triple]bool)
		for _, tr := range all {
			if !sub.IsZero() && tr.S != sub {
				continue
			}
			if !pred.IsZero() && tr.P != pred {
				continue
			}
			if !obj.IsZero() && tr.O != obj {
				continue
			}
			got[tr] = true
		}
		return got
	}
	var z rdf.Term
	patterns := [][3]rdf.Term{
		{z, z, z},
		{subjects[0], z, z},
		{z, preds[0], z},
		{z, z, objs[0]},
		{subjects[1], preds[1], z},
		{subjects[2], z, objs[2]},
		{z, preds[2], objs[4]},
		{subjects[3], preds[3], objs[6]},
	}
	for _, pat := range patterns {
		want := naive(pat[0], pat[1], pat[2])
		got := s.MatchSlice(pat[0], pat[1], pat[2])
		if len(got) != len(want) {
			t.Errorf("pattern %v: got %d, want %d", pat, len(got), len(want))
		}
		for _, tr := range got {
			if !want[tr] {
				t.Errorf("pattern %v: unexpected result %v", pat, tr)
			}
		}
		if est := s.CardinalityEstimate(pat[0], pat[1], pat[2]); est < len(want) {
			t.Errorf("pattern %v: estimate %d below actual %d", pat, est, len(want))
		}
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s := buildSample(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s.MustAdd(tri(iri(fmt.Sprintf("w%d", i)), iri("knows"), iri("bob")))
		}
	}()
	for i := 0; i < 200; i++ {
		s.Count(rdf.Term{}, iri("knows"), rdf.Term{})
		s.CardinalityEstimate(rdf.Term{}, rdf.Term{}, iri("bob"))
	}
	<-done
	if got := s.Len(); got != 207 {
		t.Errorf("Len = %d, want 207", got)
	}
}

func TestAddPropertyNoDuplicates(t *testing.T) {
	f := func(names []string) bool {
		s := New()
		uniq := make(map[rdf.Triple]struct{})
		for _, n := range names {
			tr := tri(iri("s"), iri("p"), lit(n))
			uniq[tr] = struct{}{}
			if _, err := s.Add(tr); err != nil {
				return false
			}
			if _, err := s.Add(tr); err != nil {
				return false
			}
		}
		return s.Len() == len(uniq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// subjects returns the distinct subjects in the order a wildcard Match
// streams them: term order.
func subjects(s *Store) []rdf.Term {
	var out []rdf.Term
	s.Match(rdf.Term{}, rdf.Term{}, rdf.Term{}, func(tr rdf.Triple) bool {
		if len(out) == 0 || out[len(out)-1] != tr.S {
			out = append(out, tr.S)
		}
		return true
	})
	return out
}

// predicates returns the distinct predicates, sorted.
func predicates(s *Store) []rdf.Term {
	seen := make(map[rdf.Term]bool)
	var out []rdf.Term
	s.Match(rdf.Term{}, rdf.Term{}, rdf.Term{}, func(tr rdf.Triple) bool {
		if !seen[tr.P] {
			seen[tr.P] = true
			out = append(out, tr.P)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}
