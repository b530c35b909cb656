package suffixtree

import (
	"fmt"
	"testing"
)

func benchStrings(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("literal number %d in the benchmark set %d", i, i*7%113)
	}
	return out
}

// BenchmarkBuild measures suffix-array construction over 10k strings.
func BenchmarkBuild(b *testing.B) {
	strs := benchStrings(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(strs)
	}
}

// BenchmarkSearch measures the substring lookup the QCM relies on
// (paper: ~0.25 ms regardless of indexed size).
func BenchmarkSearch(b *testing.B) {
	tr := New(benchStrings(10000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Search(fmt.Sprintf("number %d in", i%1000), 10)
	}
}

// BenchmarkSearchMissing measures the fast-fail path.
func BenchmarkSearchMissing(b *testing.B) {
	tr := New(benchStrings(10000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Search("zzz-not-there", 10)
	}
}
