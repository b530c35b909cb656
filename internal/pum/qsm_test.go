package pum

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"sapphire/internal/bins"
	"sapphire/internal/qald"
	"sapphire/internal/rdf"
	"sapphire/internal/similarity"
	"sapphire/internal/sparql"
)

// referenceLiteralMatches is the literal alternative search as a plain
// scan of every cached literal, tree and residual tier alike, scored by
// an explicit Jaro-Winkler (so the bound never runs); it never reads
// the bins.
func referenceLiteralMatches(p *PUM, l string) []bins.SimilarityMatch {
	lo := len([]rune(l)) - p.cfg.Alpha
	hi := len([]rune(l)) + p.cfg.Beta
	var matches []bins.SimilarityMatch
	for _, lex := range p.cache.Literals() {
		if n := len([]rune(lex)); n < lo || n > hi {
			continue
		}
		if s := similarity.JaroWinkler(l, lex); s >= p.cfg.Theta {
			matches = append(matches, bins.SimilarityMatch{Literal: lex, Score: s})
		}
	}
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Score != matches[j].Score {
			return matches[i].Score > matches[j].Score
		}
		return matches[i].Literal < matches[j].Literal
	})
	return matches
}

// TestLiteralAlternativesMatchesReference: the indexed, bounded search
// finds the same literals with the same scores in the same order as the
// plain scan, for every literal of every QALD gold query, as written
// and with two letters swapped.
func TestLiteralAlternativesMatchesReference(t *testing.T) {
	p := testPUM(t)
	var lits []string
	for _, q := range qald.Questions() {
		gold := sparql.MustParse(q.Gold)
		for _, pat := range gold.Where {
			if pat.O.IsVar() || !pat.O.Term.IsLiteral() {
				continue
			}
			l := pat.O.Term.Value
			lits = append(lits, l)
			if r := []rune(l); len(r) > 3 {
				r[1], r[2] = r[2], r[1]
				lits = append(lits, string(r))
			}
		}
	}
	if len(lits) == 0 {
		t.Fatal("no literals in the QALD gold queries")
	}
	matched := 0
	for _, l := range lits {
		got, want := p.similarLiterals(l), referenceLiteralMatches(p, l)
		matched += len(got)
		if len(got) != len(want) {
			t.Fatalf("%q: %d matches, reference %d", l, len(got), len(want))
		}
		for i := range got {
			if got[i].Literal != want[i].Literal || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("%q: match %d = %+v, reference %+v", l, i, got[i], want[i])
			}
		}
	}
	if matched <= len(lits) {
		t.Fatalf("%d matches for %d literals; the comparison barely runs", matched, len(lits))
	}
}

// TestCandidateCapKeepsSelection: building only selectable()
// alternatives per pattern changes neither which candidates prefetch
// selects nor the seed groups Relax starts from, at settings where
// MaxCandidates or K−1 sets the cap.
func TestCandidateCapKeepsSelection(t *testing.T) {
	base := testPUM(t)
	// Relax seeds only queries with two literals or more, which are rare
	// among the gold queries; Figure 6's query is one.
	golds := []string{`SELECT ?book WHERE {
		?book <` + rdf.NSDBO + `writer> "Jack Kerouac"@en .
		?book <` + rdf.NSDBO + `publisher> "Viking Press"@en .
	}`}
	for _, q := range qald.Questions() {
		golds = append(golds, q.Gold)
	}
	var queries []*sparql.Query
	for _, g := range golds {
		gold := sparql.MustParse(g)
		queries = append(queries, gold)
		// The same query with every literal and predicate misspelt.
		bad := gold.Clone()
		for i, pat := range bad.Where {
			if !pat.O.IsVar() && pat.O.Term.IsLiteral() && len(pat.O.Term.Value) > 3 {
				v := []byte(pat.O.Term.Value)
				v[1], v[2] = v[2], v[1]
				bad.Where[i].O.Term.Value = string(v)
			}
			if !pat.P.IsVar() {
				bad.Where[i].P.Term.Value += "s"
			}
		}
		queries = append(queries, bad)
	}
	render := func(ss []Suggestion) []string {
		var out []string
		for _, s := range ss {
			out = append(out, fmt.Sprintf("%v %d %q %v %s", s.Kind, s.TripleIndex, s.New, s.Score, s.Query))
		}
		return out
	}
	capped := 0
	for _, c := range []struct{ maxCandidates, k int }{{2, 4}, {4, 2}, {1, 1}, {1, 3}} {
		cfg := DefaultConfig()
		cfg.MaxCandidates, cfg.K = c.maxCandidates, c.k
		p := New(base.cache, base.fed, nil, cfg)
		all := *p
		all.cfg.MaxCandidates, all.cfg.K = 1<<20, 1<<20 // selectable() caps nothing
		for _, q := range queries {
			lits, allLits := p.literalAlternatives(q), all.literalAlternatives(q)
			cands := append(p.predicateAlternatives(q), lits...)
			allCands := append(all.predicateAlternatives(q), allLits...)
			if len(allCands) > len(cands) {
				capped++
			}
			if got, want := render(p.selectCandidates(cands)), render(p.selectCandidates(allCands)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v %s: selected\n%v\nwant\n%v", c, q, got, want)
			}
			if got, want := p.seedGroups(q, lits), p.seedGroups(q, allLits); !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v %s: seed groups %v, want %v", c, q, got, want)
			}
		}
	}
	if capped == 0 {
		t.Fatal("the cap never dropped a candidate; the comparison is vacuous")
	}
}
