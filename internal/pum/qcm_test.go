package pum

import (
	"context"
	"slices"
	"strings"
	"testing"

	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
)

// TestCompleteResultsContainTerm is the QCM's core contract: every
// suggestion contains the typed string (Section 6.1: "find k strings in
// the data that contain t").
func TestCompleteResultsContainTerm(t *testing.T) {
	p := testPUM(t)
	terms := []string{"Ken", "Kerouac", "alma", "a", "press", "Sydn", "ing"}
	for _, term := range terms {
		for _, c := range p.Complete(term) {
			if !strings.Contains(c.Text, term) {
				t.Errorf("Complete(%q) returned %q which does not contain the term", term, c.Text)
			}
		}
	}
}

// TestCompleteKeystrokeSequence types a term character by character as
// the UI does, checking the QCM stays consistent: once a prefix stops
// matching, longer prefixes cannot match either.
func TestCompleteKeystrokeSequence(t *testing.T) {
	p := testPUM(t)
	term := "Jack Kerouac"
	matchedBefore := true
	for i := 1; i <= len(term); i++ {
		got := p.Complete(term[:i])
		if len(got) == 0 && matchedBefore {
			matchedBefore = false
		}
		if len(got) > 0 && !matchedBefore {
			t.Errorf("prefix %q matches after a shorter prefix failed", term[:i])
		}
	}
	if !matchedBefore {
		t.Error("full literal never matched")
	}
}

// TestCompleteTreeVsBinsPartition: a string never appears from both the
// tree and the bins (they partition the cached data).
func TestCompleteTreeVsBinsPartition(t *testing.T) {
	p := testPUM(t)
	for _, term := range []string{"Ken", "a", "press"} {
		tree := make(map[string]bool)
		for _, c := range p.CompleteTreeOnly(term) {
			tree[c.Text] = true
		}
		for _, c := range p.CompleteBinsOnly(term, 4) {
			if tree[c.Text] {
				t.Errorf("%q returned from both tree and bins", c.Text)
			}
		}
	}
}

// TestCompleteWorkerCountInvariance: parallelism must not change the
// result set (the QCM claim behind the multi-core speedup). Terms under
// three bytes are the ones the bins still scan in parallel.
func TestCompleteWorkerCountInvariance(t *testing.T) {
	p := testPUM(t)
	for _, term := range []string{"Ken", "Spring", "ing", "e", "in"} {
		base := p.CompleteBinsOnly(term, 1)
		for _, workers := range []int{2, 4, 8} {
			got := p.CompleteBinsOnly(term, workers)
			if len(got) != len(base) {
				t.Fatalf("term %q: %d workers returned %d, 1 worker %d",
					term, workers, len(got), len(base))
			}
			for i := range got {
				if got[i].Text != base[i].Text {
					t.Errorf("term %q result %d differs across worker counts", term, i)
				}
			}
		}
	}
}

// referenceComplete is the QCM as Figure 5 states it: suffix-tree
// matches, then Algorithm 1's scan of the residual bins, deduplicated
// through a set.
func referenceComplete(p *PUM, term string) []Completion {
	if term == "" || strings.HasPrefix(term, "?") {
		return nil
	}
	k := p.cfg.K
	var out []Completion
	seen := make(map[string]bool)
	for _, m := range p.cache.Tree.Search(term, k) {
		if seen[m.Value] {
			continue
		}
		seen[m.Value] = true
		out = append(out, Completion{Text: m.Value, IsPredicate: p.cache.IsPredicateDisplay(m.Value), FromTree: true})
		if len(out) >= k {
			return out
		}
	}
	lo := len([]rune(term))
	for _, lit := range p.cache.Bins.ScanSubstring(term, lo, lo+p.cfg.Gamma, p.cfg.Workers, k-len(out)) {
		if seen[lit] {
			continue
		}
		seen[lit] = true
		out = append(out, Completion{Text: lit})
		if len(out) >= k {
			break
		}
	}
	return out
}

// TestCompleteMatchesScanReference types every cached literal keystroke
// by keystroke — each prefix of 3 to 12 runes — and requires Complete,
// which searches the bins through their trigram index, to answer exactly
// what the scan-based reference answers.
func TestCompleteMatchesScanReference(t *testing.T) {
	p := testPUM(t)
	keystrokes, reachedBins := 0, 0
	for _, lex := range p.cache.Literals() {
		r := []rune(lex)
		for n := 3; n <= 12 && n <= len(r); n++ {
			term := string(r[:n])
			got, want := p.Complete(term), referenceComplete(p, term)
			if !slices.Equal(got, want) {
				t.Fatalf("Complete(%q) = %+v\nreference  %+v", term, got, want)
			}
			keystrokes++
			if len(want) > 0 && !want[len(want)-1].FromTree {
				reachedBins++
			}
		}
	}
	if reachedBins == 0 {
		t.Fatalf("none of %d keystrokes completed from the bins; the comparison is vacuous", keystrokes)
	}
	t.Logf("%d keystrokes, %d completed from the bins", keystrokes, reachedBins)
}

// BenchmarkComplete measures the full QCM path on the shared test cache.
func BenchmarkComplete(b *testing.B) {
	p := testPUM(b)
	terms := []string{"Ken", "Kerouac", "alma", "press"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Complete(terms[i%len(terms)])
	}
}

// BenchmarkSuggest measures a full QSM round (term alternatives +
// prefetch + relaxation attempt).
func BenchmarkSuggest(b *testing.B) {
	p := testPUM(b)
	q := mustQuery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Suggest(ctxBG, q); err != nil {
			b.Fatal(err)
		}
	}
}

var ctxBG = context.Background()

func mustQuery(tb testing.TB) *sparql.Query {
	tb.Helper()
	return sparql.MustParse(`SELECT ?p WHERE {
		?p <` + rdf.NSDBO + `name> "Ted Kennedys"@en .
	}`)
}
