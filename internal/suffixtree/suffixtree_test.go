package suffixtree

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSearchBasic(t *testing.T) {
	tr := New([]string{"New York", "New Jersey", "York Minster", "Boston"})
	got := tr.Search("York", 0)
	want := []string{"New York", "York Minster"}
	if !matchValuesEqual(got, want) {
		t.Errorf("Search(York) = %v, want %v", got, want)
	}
	if got := tr.Search("Boston", 1); len(got) != 1 || got[0].Value != "Boston" {
		t.Errorf("Search(Boston, 1) = %v", got)
	}
	if got := tr.Search("Chicago", 1); got != nil {
		t.Errorf("Search(Chicago, 1) = %v", got)
	}
}

func matchValuesEqual(got []Match, want []string) bool {
	vals := make([]string, len(got))
	for i, m := range got {
		vals[i] = m.Value
	}
	sort.Strings(vals)
	w := append([]string(nil), want...)
	sort.Strings(w)
	if len(vals) != len(w) {
		return false
	}
	for i := range vals {
		if vals[i] != w[i] {
			return false
		}
	}
	return true
}

func TestSearchSubstringAnywhere(t *testing.T) {
	tr := New([]string{"abcdef", "xxabyy", "zzzab"})
	got := tr.Search("ab", 0)
	if !matchValuesEqual(got, []string{"abcdef", "xxabyy", "zzzab"}) {
		t.Errorf("Search(ab) = %v", got)
	}
}

func TestSearchSuffixOverlapAcrossStrings(t *testing.T) {
	// The regression the unique final mark fixes: a later string that is
	// a substring/suffix of an earlier one must still be found.
	tr := New([]string{"ab", "b"})
	got := tr.Search("b", 0)
	if !matchValuesEqual(got, []string{"ab", "b"}) {
		t.Errorf("Search(b) = %v, want both strings", got)
	}
}

func TestSearchLimit(t *testing.T) {
	strs := make([]string, 50)
	for i := range strs {
		strs[i] = fmt.Sprintf("common-%02d", i)
	}
	tr := New(strs)
	got := tr.Search("common", 10)
	if len(got) != 10 {
		t.Errorf("limit 10 returned %d", len(got))
	}
	all := tr.Search("common", 0)
	if len(all) != 50 {
		t.Errorf("unlimited returned %d, want 50", len(all))
	}
}

func TestSearchEmptyAndMissing(t *testing.T) {
	tr := New([]string{"abc"})
	if got := tr.Search("", 0); got != nil {
		t.Errorf("empty pattern = %v", got)
	}
	if got := tr.Search("zzz", 0); got != nil {
		t.Errorf("missing pattern = %v", got)
	}
	if got := tr.Search("abcd", 0); got != nil {
		t.Errorf("overlong pattern = %v", got)
	}
	empty := New(nil)
	if got := empty.Search("a", 0); got != nil {
		t.Errorf("empty tree = %v", got)
	}
}

func TestDuplicatesAndSkips(t *testing.T) {
	tr := New([]string{"dup", "dup", "", "ok", "bad\x00sep", "bad\x01mark"})
	// Only "dup" and "ok" are indexed, as strings 0 and 1.
	if got := tr.Search("dup", 0); len(got) != 1 || got[0].Index != 0 {
		t.Errorf("Search(dup) = %v", got)
	}
	if got := tr.Search("ok", 0); len(got) != 1 || got[0].Index != 1 {
		t.Errorf("Search(ok) = %v", got)
	}
	for _, p := range []string{"bad", "sep", "mark", "\x00", "\x01", "p\x00"} {
		if got := tr.Search(p, 0); got != nil {
			t.Errorf("Search(%q) = %v, want nil", p, got)
		}
	}
}

func TestUnicode(t *testing.T) {
	tr := New([]string{"Zürich", "München", "ZüZü"})
	if got := tr.Search("ü", 0); len(got) != 3 {
		t.Errorf("Search(ü) = %v", got)
	}
	if got := tr.Search("üri", 0); len(got) != 1 || got[0].Value != "Zürich" {
		t.Errorf("Search(üri) = %v", got)
	}
}

// naiveSearch is the brute-force reference.
func naiveSearch(strs []string, pattern string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, s := range strs {
		if !seen[s] && s != "" && strings.Contains(s, pattern) {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func TestSearchAgainstNaiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabet := "abcde"
	randStr := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		strs := make([]string, n)
		for i := range strs {
			strs[i] = randStr(1 + rng.Intn(12))
		}
		tr := New(strs)
		for p := 0; p < 20; p++ {
			pat := randStr(1 + rng.Intn(4))
			got := tr.Search(pat, 0)
			want := naiveSearch(strs, pat)
			if !matchValuesEqual(got, want) {
				t.Fatalf("trial %d: Search(%q) over %v = %v, want %v", trial, pat, strs, got, want)
			}
		}
	}
}

func TestSearchPropertyQuick(t *testing.T) {
	f := func(strs []string, pat string) bool {
		// Constrain to the supported input space.
		clean := make([]string, 0, len(strs))
		for _, s := range strs {
			if !strings.ContainsAny(s, "\x00\x01") && len(s) < 30 {
				clean = append(clean, s)
			}
		}
		if strings.ContainsAny(pat, "\x00\x01") || pat == "" || len(pat) > 10 {
			return true
		}
		tr := New(clean)
		got := tr.Search(pat, 0)
		want := naiveSearch(clean, pat)
		return matchValuesEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestMatchIndexStable(t *testing.T) {
	tr := New([]string{"alpha", "beta", "alphabet"})
	for _, m := range tr.Search("alpha", 0) {
		switch m.Value {
		case "alpha":
			if m.Index != 0 {
				t.Errorf("alpha index = %d", m.Index)
			}
		case "alphabet":
			if m.Index != 2 {
				t.Errorf("alphabet index = %d", m.Index)
			}
		}
	}
}

func TestNodeCountAndSize(t *testing.T) {
	// One suffix-array entry per indexed rune: 6 + 7 + 2 (ü is one rune).
	tr := New([]string{"banana", "bandana", "ün", "banana"})
	if tr.Len() != 15 {
		t.Errorf("Len = %d, want 15", tr.Len())
	}
	// text (15 runes + 3 separators + final mark), offsets and entries at
	// 4 bytes each, plus the string headers.
	if want := 4*(19+3+15) + 3*16; tr.Bytes() < want {
		t.Errorf("Bytes = %d, want >= %d", tr.Bytes(), want)
	}
	if empty := New(nil); empty.Len() != 0 || empty.Bytes() <= 0 {
		t.Errorf("empty: Len = %d, Bytes = %d", empty.Len(), empty.Bytes())
	}
}

func TestDeterministicResults(t *testing.T) {
	strs := []string{"car", "cart", "scar", "carbon", "oscar"}
	tr := New(strs)
	a := tr.Search("car", 0)
	for i := 0; i < 5; i++ {
		b := tr.Search("car", 0)
		if len(a) != len(b) {
			t.Fatal("nondeterministic result size")
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("nondeterministic result order")
			}
		}
	}
}

func TestLargeScaleSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	strs := make([]string, 5000)
	for i := range strs {
		strs[i] = fmt.Sprintf("entity %d of the set %d", i, i*7%101)
	}
	tr := New(strs)
	got := tr.Search("entity 4999", 0)
	if len(got) != 1 {
		t.Errorf("Search(entity 4999) = %v", got)
	}
	all := tr.Search("of the set", 0)
	if len(all) != 5000 {
		t.Errorf("Search(of the set) = %d, want 5000", len(all))
	}
}
