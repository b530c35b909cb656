// Package lexicon provides the verbalization lexicon the QSM consults to
// expand query predicates into natural-language synonyms before the
// similarity search (Algorithm 2, line 4: S = Lemon.getLexica(e)).
//
// The paper uses the DBpedia Lemon lexicon; this package substitutes a
// built-in table with the same lookup semantics: given a term, return the
// ways it can be verbalized, so "wife" and "husband" both reach "spouse".
package lexicon

import (
	"sort"
	"strings"
)

// Lexicon maps terms to their verbalization groups. Lookup is symmetric:
// every member of a group verbalizes every other member.
type Lexicon struct {
	groups [][]string
	index  map[string][]int
}

// New builds a lexicon from synonym groups. Entries are lowercased.
func New(groups [][]string) *Lexicon {
	lx := &Lexicon{index: make(map[string][]int)}
	for _, g := range groups {
		norm := make([]string, 0, len(g))
		seen := make(map[string]bool)
		for _, w := range g {
			w = strings.ToLower(strings.TrimSpace(w))
			if w != "" && !seen[w] {
				seen[w] = true
				norm = append(norm, w)
			}
		}
		if len(norm) < 2 {
			continue
		}
		gi := len(lx.groups)
		lx.groups = append(lx.groups, norm)
		for _, w := range norm {
			lx.index[w] = append(lx.index[w], gi)
		}
	}
	return lx
}

// Lexica returns the verbalizations of term: the term itself plus every
// other member of each synonym group containing it, sorted. A term not in
// the lexicon returns just itself, matching the paper's behaviour of
// falling back to the raw term.
func (lx *Lexicon) Lexica(term string) []string {
	t := strings.ToLower(strings.TrimSpace(term))
	if t == "" {
		return nil
	}
	out := map[string]bool{t: true}
	for _, gi := range lx.index[t] {
		for _, w := range lx.groups[gi] {
			out[w] = true
		}
	}
	res := make([]string, 0, len(out))
	for w := range out {
		res = append(res, w)
	}
	sort.Strings(res)
	return res
}

// Default returns the built-in lexicon substituting the DBpedia Lemon
// lexicon. It covers the relations exercised by the paper's user-study
// questions (Appendix B) plus common DBpedia predicate verbalizations.
func Default() *Lexicon {
	return New([][]string{
		{"spouse", "wife", "husband", "married", "marriage partner"},
		{"birth place", "birthplace", "born in", "place of birth", "born"},
		{"death place", "deathplace", "died in", "place of death", "died"},
		{"birth date", "birthday", "birthdays", "born on", "date of birth"},
		{"alma mater", "graduated from", "studied at", "educated at", "university attended"},
		{"author", "writer", "written by", "wrote"},
		{"publisher", "published by", "publishing house"},
		{"director", "directed by", "film director"},
		{"starring", "stars", "actors", "actor in", "acted in", "cast member"},
		{"population", "inhabitants", "people living", "number of people", "populace"},
		{"capital", "capital city", "seat of government"},
		{"country", "nation", "state"},
		{"located in", "location", "situated in", "lies in"},
		{"time zone", "timezone", "time offset"},
		{"currency", "money", "legal tender"},
		{"designer", "designed by", "architect"},
		{"creator", "created by", "founder", "founded by", "maker"},
		{"child", "children", "son", "daughter", "offspring"},
		{"parent", "parents", "father", "mother"},
		{"instrument", "instruments", "plays", "played instrument"},
		{"budget", "cost", "production budget"},
		{"revenue", "income", "earnings", "turnover"},
		{"industry", "sector", "business", "works in"},
		{"affiliation", "affiliated with", "member of", "belongs to"},
		{"depth", "deepness", "how deep", "maximum depth"},
		{"height", "tall", "how tall", "elevation"},
		{"pages", "page count", "number of pages", "length in pages"},
		{"nickname", "called", "known as", "alias", "surname"},
		{"vice president", "vicepresident", "deputy", "second in command"},
		{"river mouth", "mouth", "ends in", "flows into"},
		{"source", "starts in", "origin", "rises in"},
	})
}
