package bins

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"sapphire/internal/similarity"
)

func TestNewBucketsByRuneLength(t *testing.T) {
	b := New([]string{"ab", "cd", "abc", "ü", "x", "dup", "dup", ""}, nil)
	if b.Len() != 6 {
		t.Errorf("Len = %d, want 6", b.Len())
	}
	for n := 1; n <= 3; n++ {
		if got := b.SelectedCount(n, n); got != 2 {
			t.Errorf("SelectedCount(%d, %d) = %d, want 2", n, n, got)
		}
	}
	if b.BinCount() != 3 {
		t.Errorf("BinCount = %d, want 3", b.BinCount())
	}
}

func TestSelectRange(t *testing.T) {
	b := New([]string{"a", "bb", "ccc", "dddd", "eeeee"}, nil)
	sel := b.Select(2, 4)
	total := 0
	for _, bin := range sel {
		total += len(bin)
	}
	if total != 3 {
		t.Errorf("Select(2,4) covers %d literals, want 3", total)
	}
	if b.SelectedCount(2, 4) != 3 {
		t.Errorf("SelectedCount = %d", b.SelectedCount(2, 4))
	}
	if b.SelectedCount(-5, 0) != 0 {
		t.Errorf("negative range should select nothing")
	}
}

func TestAssignTasksBalance(t *testing.T) {
	// Three bins of sizes 10, 7, 3 over 4 workers: 20 literals, d=5.
	bins := [][]string{make([]string, 10), make([]string, 7), make([]string, 3)}
	for bi := range bins {
		for i := range bins[bi] {
			bins[bi][i] = fmt.Sprintf("%d-%d", bi, i)
		}
	}
	tasks := AssignTasks(bins, 4)
	if len(tasks) != 4 {
		t.Fatalf("workers = %d", len(tasks))
	}
	counts := make([]int, 4)
	covered := make(map[string]int)
	for wi, ts := range tasks {
		for _, task := range ts {
			if task.From >= task.To {
				t.Errorf("worker %d empty task %+v", wi, task)
			}
			for i := task.From; i < task.To; i++ {
				counts[wi]++
				covered[bins[task.Bin][i]]++
			}
		}
	}
	// Every literal covered exactly once.
	if len(covered) != 20 {
		t.Errorf("covered %d literals, want 20", len(covered))
	}
	for l, n := range covered {
		if n != 1 {
			t.Errorf("literal %s assigned %d times", l, n)
		}
	}
	// Balanced: max-min <= d.
	sort.Ints(counts)
	if counts[3]-counts[0] > 5 {
		t.Errorf("imbalanced counts %v", counts)
	}
}

func TestAssignTasksProperties(t *testing.T) {
	f := func(sizes []uint8, p8 uint8) bool {
		p := int(p8%8) + 1
		var bins [][]string
		total := 0
		for bi, s := range sizes {
			n := int(s % 50)
			bin := make([]string, n)
			for i := range bin {
				bin[i] = fmt.Sprintf("%d-%d", bi, i)
			}
			total += n
			bins = append(bins, bin)
		}
		tasks := AssignTasks(bins, p)
		if len(tasks) != p {
			return false
		}
		covered := make(map[string]int)
		for _, ts := range tasks {
			for _, task := range ts {
				if task.From < 0 || task.To > len(bins[task.Bin]) || task.From >= task.To {
					return false
				}
				for i := task.From; i < task.To; i++ {
					covered[bins[task.Bin][i]]++
				}
			}
		}
		if len(covered) != total {
			return false
		}
		for _, n := range covered {
			if n != 1 {
				return false
			}
		}
		// Max load is at most ceil(total/p) per Algorithm 1.
		d := 0
		if p > 0 {
			d = (total + p - 1) / p
		}
		for _, ts := range tasks {
			load := 0
			for _, task := range ts {
				load += task.To - task.From
			}
			if load > d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAssignTasksEdgeCases(t *testing.T) {
	if tasks := AssignTasks(nil, 4); len(tasks) != 4 {
		t.Errorf("nil bins → %d workers", len(tasks))
	}
	if tasks := AssignTasks([][]string{{"a"}}, 0); len(tasks) != 1 {
		t.Errorf("p=0 should clamp to 1, got %d", len(tasks))
	}
	// More workers than literals.
	tasks := AssignTasks([][]string{{"a", "b"}}, 8)
	n := 0
	for _, ts := range tasks {
		for _, task := range ts {
			n += task.To - task.From
		}
	}
	if n != 2 {
		t.Errorf("covered %d, want 2", n)
	}
}

func TestSearchSubstring(t *testing.T) {
	lits := []string{"Kennedy", "Kennedys", "John Kennedy", "Lincoln", "Kent"}
	b := New(lits, nil)
	got := b.SearchSubstring("Kenned", 0, 100, 4, 0)
	if len(got) != 3 {
		t.Errorf("matches = %v, want 3", got)
	}
	// Shortest first.
	if got[0] != "Kennedy" {
		t.Errorf("first = %q, want Kennedy (shortest)", got[0])
	}
}

func TestSearchSubstringRangeFilter(t *testing.T) {
	b := New([]string{"abc", "abcdefgh", "ab"}, nil)
	// Range [3,4] excludes "ab" (len 2) and "abcdefgh" (len 8).
	got := b.SearchSubstring("ab", 3, 4, 2, 0)
	if len(got) != 1 || got[0] != "abc" {
		t.Errorf("got %v, want [abc]", got)
	}
}

func TestSearchSubstringLimit(t *testing.T) {
	var lits []string
	for i := 0; i < 100; i++ {
		lits = append(lits, fmt.Sprintf("item-%03d", i))
	}
	b := New(lits, nil)
	got := b.SearchSubstring("item", 0, 100, 8, 7)
	if len(got) != 7 {
		t.Errorf("limit 7 returned %d", len(got))
	}
}

func TestSearchSubstringEmptyPattern(t *testing.T) {
	b := New([]string{"a"}, nil)
	if got := b.SearchSubstring("", 0, 10, 2, 0); got != nil {
		t.Errorf("empty pattern = %v", got)
	}
}

func TestSearchSimilarThreshold(t *testing.T) {
	b := New([]string{"Kennedy", "Kenneth", "Lincoln", "Kennedys"}, nil)
	got := b.SearchSimilar("Kennedys", 0, 100, 4, 0.7, nil)
	// Lincoln must be filtered; Kennedy and Kenneth pass JW >= 0.7.
	for _, m := range got {
		if m.Literal == "Lincoln" {
			t.Error("Lincoln passed the 0.7 threshold")
		}
		if m.Score < 0.7 {
			t.Errorf("match %v below threshold", m)
		}
	}
	if len(got) < 2 {
		t.Errorf("matches = %v, want at least Kennedy and Kennedys", got)
	}
	// Sorted by descending score; exact self-match first.
	if got[0].Literal != "Kennedys" {
		t.Errorf("top match = %v, want Kennedys", got[0])
	}
}

func TestSearchSimilarCustomMeasure(t *testing.T) {
	b := New([]string{"viking press", "the viking press", "penguin"}, nil)
	got := b.SearchSimilar("viking press", 0, 100, 2, 0.5, similarity.JaccardTokens)
	if len(got) != 2 {
		t.Errorf("jaccard matches = %v", got)
	}
}

// TestParallelScanMatchesSequential verifies worker count does not change
// results — the invariant behind the QCM's "more cores, same answers,
// lower latency" claim.
func TestParallelScanMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var lits []string
	for i := 0; i < 500; i++ {
		lits = append(lits, fmt.Sprintf("literal %d %s", i, strings.Repeat("x", rng.Intn(20))))
	}
	b := New(lits, nil)
	base := b.ScanSubstring("literal 4", 0, 100, 1, 0)
	for _, p := range []int{2, 4, 8} {
		got := b.ScanSubstring("literal 4", 0, 100, p, 0)
		if len(got) != len(base) {
			t.Fatalf("p=%d returned %d, want %d", p, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("p=%d result %d = %q, want %q", p, i, got[i], base[i])
			}
		}
	}
}
