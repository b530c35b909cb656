package rdf

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructorsAndPredicates(t *testing.T) {
	iri := NewIRI("http://example.org/a")
	if !iri.IsIRI() || iri.IsLiteral() || iri.IsBlank() || iri.IsZero() {
		t.Fatalf("IRI predicates wrong: %+v", iri)
	}
	lit := NewLiteral("hello")
	if !lit.IsLiteral() || lit.Lang != "" || lit.Datatype != "" {
		t.Fatalf("plain literal wrong: %+v", lit)
	}
	lang := NewLangLiteral("hello", "en")
	if lang.Lang != "en" {
		t.Fatalf("lang literal wrong: %+v", lang)
	}
	typed := NewTypedLiteral("42", XSDInteger)
	if typed.Datatype != XSDInteger {
		t.Fatalf("typed literal wrong: %+v", typed)
	}
	bn := NewBlank("b0")
	if !bn.IsBlank() {
		t.Fatalf("blank wrong: %+v", bn)
	}
	var zero Term
	if !zero.IsZero() {
		t.Fatal("zero Term should be zero")
	}
}

func TestTermString(t *testing.T) {
	tests := []struct {
		term Term
		want string
	}{
		{NewIRI("http://x/y"), "<http://x/y>"},
		{NewLiteral("a"), `"a"`},
		{NewLangLiteral("a", "en"), `"a"@en`},
		{NewTypedLiteral("1", XSDInteger), `"1"^^<` + XSDInteger + `>`},
		{NewBlank("n1"), "_:n1"},
		{NewLiteral(`quote " and \ slash`), `"quote \" and \\ slash"`},
		{NewLiteral("line\nbreak\ttab\rcr"), `"line\nbreak\ttab\rcr"`},
		{Term{}, "<invalid>"},
	}
	for _, tc := range tests {
		if got := tc.term.String(); got != tc.want {
			t.Errorf("String(%+v) = %q, want %q", tc.term, got, tc.want)
		}
	}
}

func TestTermKindString(t *testing.T) {
	kinds := map[TermKind]string{
		KindIRI: "iri", KindLiteral: "literal", KindBlank: "blank", KindInvalid: "invalid",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("TermKind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestTermCompareTotalOrder(t *testing.T) {
	terms := []Term{
		NewIRI("http://a"), NewIRI("http://b"),
		NewLiteral("a"), NewLiteral("b"),
		NewLangLiteral("a", "de"), NewLangLiteral("a", "en"),
		NewTypedLiteral("a", XSDString),
		NewBlank("x"),
	}
	sorted := append([]Term(nil), terms...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Compare(sorted[j]) < 0 })
	// Re-sorting must be stable and idempotent.
	again := append([]Term(nil), sorted...)
	sort.Slice(again, func(i, j int) bool { return again[i].Compare(again[j]) < 0 })
	for i := range sorted {
		if sorted[i] != again[i] {
			t.Fatalf("sort not deterministic at %d: %v vs %v", i, sorted[i], again[i])
		}
	}
	// Compare must agree with equality.
	for _, a := range terms {
		for _, b := range terms {
			c := a.Compare(b)
			if (c == 0) != (a == b) {
				t.Errorf("Compare(%v,%v)=%d disagrees with ==", a, b, c)
			}
			if c != -b.Compare(a) {
				t.Errorf("Compare not antisymmetric for %v,%v", a, b)
			}
		}
	}
}

func TestTermComparePropertyBased(t *testing.T) {
	mk := func(kind uint8, v, lang string) Term {
		switch kind % 3 {
		case 0:
			return NewIRI("http://x/" + v)
		case 1:
			if lang != "" {
				return NewLangLiteral(v, "en")
			}
			return NewLiteral(v)
		default:
			return NewBlank("b" + v)
		}
	}
	antisym := func(k1, k2 uint8, v1, v2, l1, l2 string) bool {
		a, b := mk(k1, v1, l1), mk(k2, v2, l2)
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Error(err)
	}
	reflexive := func(k uint8, v, l string) bool {
		a := mk(k, v, l)
		return a.Compare(a) == 0
	}
	if err := quick.Check(reflexive, nil); err != nil {
		t.Error(err)
	}
}

func TestTripleValid(t *testing.T) {
	s := NewIRI("http://s")
	p := NewIRI("http://p")
	o := NewLiteral("o")
	if !NewTriple(s, p, o).Valid() {
		t.Error("iri/iri/literal should be valid")
	}
	if !NewTriple(NewBlank("b"), p, s).Valid() {
		t.Error("blank subject should be valid")
	}
	if NewTriple(o, p, s).Valid() {
		t.Error("literal subject should be invalid")
	}
	if NewTriple(s, NewBlank("b"), o).Valid() {
		t.Error("blank predicate should be invalid")
	}
	if NewTriple(s, p, Term{}).Valid() {
		t.Error("zero object should be invalid")
	}
}

func TestTripleString(t *testing.T) {
	tr := NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewLangLiteral("v", "en"))
	want := `<http://s> <http://p> "v"@en .`
	if got := tr.String(); got != want {
		t.Errorf("Triple.String() = %q, want %q", got, want)
	}
}

func TestQuoteLiteralRoundTripThroughParser(t *testing.T) {
	// Any literal we serialize must parse back to the same term.
	lexes := []string{
		"plain", "with \"quotes\"", `back\slash`, "new\nline", "tab\there",
		"mixed \\ \" \n \t \r end", "", "unicode ü é 日本",
	}
	for _, lex := range lexes {
		tr := NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewLiteral(lex))
		got, err := parseTriple(tr.String())
		if err != nil {
			t.Fatalf("parseTriple(%q): %v", tr.String(), err)
		}
		if got.O.Value != lex {
			t.Errorf("round trip %q -> %q", lex, got.O.Value)
		}
	}
}

func TestQuoteLiteralPropertyRoundTrip(t *testing.T) {
	f := func(lex string) bool {
		if !validUTF8NoControl(lex) {
			return true // skip inputs the grammar does not cover
		}
		tr := NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewLiteral(lex))
		got, err := parseTriple(tr.String())
		return err == nil && got.O.Value == lex
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// validUTF8NoControl filters fuzz inputs to the subset of strings the
// N-Triples writer guarantees to round-trip (no raw control chars other
// than the escaped ones).
func validUTF8NoControl(s string) bool {
	for _, r := range s {
		if r < 0x20 && r != '\n' && r != '\t' && r != '\r' {
			return false
		}
		if r == 0xFFFD && !strings.ContainsRune(s, 0xFFFD) {
			return false
		}
	}
	return true
}
