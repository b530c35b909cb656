// Package suffixtree is the substring index the paper's Query Completion
// Module answers a keystroke from (Section 5.2): a generalized suffix
// array [Manber & Myers 1993] over the predicate display names and the
// most significant literals. Lookup of a term t is a binary search plus
// a walk over the z suffixes that start with t, O(|t| log n + z).
//
// The strings are concatenated, each followed by a NUL separator, with
// one final \x01 after the last. Because a query term never contains
// either rune, every occurrence lies inside one string. Because \x01
// occurs once, no suffix is a prefix of another, so the suffixes sorted
// rune by rune are exactly the leaves of the generalized suffix tree in
// its depth-first order over rune-sorted children: Search returns the
// same strings in the same order a suffix tree over the same text would,
// including ties between equal suffixes, which the text after the
// separator breaks.
package suffixtree

import (
	"slices"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// separator ends each indexed string inside the text; finalMark ends the
// text. Input strings and patterns containing either are skipped.
const (
	separator = '\x00'
	finalMark = '\x01'
	reserved  = "\x00\x01"
)

// Tree is a generalized suffix array over a set of strings.
type Tree struct {
	text    []rune   // every string followed by separator, then finalMark
	strs    []string // the distinct indexed strings, in insertion order
	offsets []int32  // start of strs[i] inside text, ascending
	sa      []int32  // position of every rune inside a string, by suffix order
}

// New indexes the given strings. Empty strings, strings containing NUL or
// \x01 (neither occurs in the RDF literals Sapphire caches) and repeats
// are skipped.
func New(strs []string) *Tree {
	t := &Tree{}
	seen := make(map[string]bool, len(strs))
	runes := 0
	for _, s := range strs {
		if s == "" || strings.ContainsAny(s, reserved) || seen[s] {
			continue
		}
		seen[s] = true
		t.strs = append(t.strs, s)
		runes += utf8.RuneCountInString(s)
	}
	t.text = make([]rune, 0, runes+len(t.strs)+1)
	t.offsets = make([]int32, len(t.strs))
	t.sa = make([]int32, 0, runes)
	for i, s := range t.strs {
		t.offsets[i] = int32(len(t.text))
		for _, r := range s {
			t.sa = append(t.sa, int32(len(t.text)))
			t.text = append(t.text, r)
		}
		t.text = append(t.text, separator)
	}
	t.text = append(t.text, finalMark)
	slices.SortFunc(t.sa, func(a, b int32) int { return slices.Compare(t.text[a:], t.text[b:]) })
	return t
}

// Len returns the number of suffix-array entries: the runes indexed.
func (t *Tree) Len() int { return len(t.sa) }

// Bytes returns the memory the index owns: its arrays and its header.
// The string bytes are shared with the caller and not counted.
func (t *Tree) Bytes() int {
	return int(unsafe.Sizeof(*t)) + 4*(cap(t.text)+cap(t.offsets)+cap(t.sa)) +
		int(unsafe.Sizeof(""))*cap(t.strs)
}

// Match is one search result.
type Match struct {
	// Value is the indexed string containing the pattern.
	Value string
	// Index is the position of Value in insertion order.
	Index int
}

// Search returns up to limit distinct indexed strings containing pattern
// (limit <= 0 means all), in suffix order. The empty pattern and patterns
// containing NUL or \x01 match nothing.
func (t *Tree) Search(pattern string, limit int) []Match {
	if pattern == "" || strings.ContainsAny(pattern, reserved) {
		return nil
	}
	p := []rune(pattern)
	i, _ := slices.BinarySearchFunc(t.sa, p, func(pos int32, p []rune) int {
		return slices.Compare(t.text[pos:], p)
	})
	var out []Match
	seen := make(map[int]bool)
	for ; i < len(t.sa) && (limit <= 0 || len(out) < limit); i++ {
		pos := t.sa[i]
		if int(pos)+len(p) > len(t.text) || !slices.Equal(t.text[pos:int(pos)+len(p)], p) {
			break
		}
		idx, ok := slices.BinarySearch(t.offsets, pos)
		if !ok {
			idx--
		}
		if !seen[idx] {
			seen[idx] = true
			out = append(out, Match{Value: t.strs[idx], Index: idx})
		}
	}
	return out
}
