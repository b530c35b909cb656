package lexicon

import (
	"testing"
)

func TestLexicaSymmetric(t *testing.T) {
	lx := New([][]string{{"spouse", "wife", "husband"}})
	got := lx.Lexica("wife")
	want := map[string]bool{"spouse": true, "wife": true, "husband": true}
	if len(got) != 3 {
		t.Fatalf("Lexica(wife) = %v", got)
	}
	for _, w := range got {
		if !want[w] {
			t.Errorf("unexpected verbalization %q", w)
		}
	}
	// Symmetry: husband reaches the same group.
	if len(lx.Lexica("husband")) != 3 {
		t.Error("husband not symmetric")
	}
}

func TestLexicaFallback(t *testing.T) {
	lx := New(nil)
	got := lx.Lexica("unknownterm")
	if len(got) != 1 || got[0] != "unknownterm" {
		t.Errorf("fallback = %v, want just the term", got)
	}
	if len(lx.index["unknownterm"]) > 0 {
		t.Error("unknown term has lexicon entries")
	}
}

func TestLexicaEmpty(t *testing.T) {
	lx := Default()
	if got := lx.Lexica(""); got != nil {
		t.Errorf("empty term = %v", got)
	}
	if got := lx.Lexica("   "); got != nil {
		t.Errorf("blank term = %v", got)
	}
}

func TestLexicaCaseInsensitive(t *testing.T) {
	lx := Default()
	a := lx.Lexica("Spouse")
	b := lx.Lexica("spouse")
	if len(a) != len(b) {
		t.Errorf("case sensitivity: %v vs %v", a, b)
	}
}

func TestLexicaMultipleGroups(t *testing.T) {
	lx := New([][]string{
		{"state", "country"},
		{"state", "province"},
	})
	got := lx.Lexica("state")
	if len(got) != 3 {
		t.Errorf("Lexica(state) = %v, want country, province, state", got)
	}
}

func TestNewSkipsDegenerateGroups(t *testing.T) {
	lx := New([][]string{
		{"solo"},
		{"", "  "},
		{"dup", "dup"},
		{"a", "b"},
	})
	if len(lx.groups) != 1 {
		t.Errorf("groups = %v, want only the a/b group", lx.groups)
	}
}

func TestDefaultCoversPaperExamples(t *testing.T) {
	lx := Default()
	// Paper's example: wife/husband verbalize spouse.
	spouse := lx.Lexica("wife")
	found := false
	for _, w := range spouse {
		if w == "spouse" {
			found = true
		}
	}
	if !found {
		t.Errorf("wife does not verbalize spouse: %v", spouse)
	}
	// User-study relations must be present.
	for _, term := range []string{"alma mater", "population", "capital", "starring", "budget"} {
		if len(lx.Lexica(term)) < 2 {
			t.Errorf("default lexicon missing %q", term)
		}
	}
}
