package similarity

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// referenceJaroWinkler is the rune path as it stood before the ASCII
// kernel: []rune conversion, heap flags, the prefix over runes. The
// kernel and the bound are checked against it bit for bit.
func referenceJaroWinkler(a, b string) float64 {
	j := referenceJaro(a, b)
	if j == 0 {
		return 0
	}
	ra, rb := []rune(a), []rune(b)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	const scale = 0.1
	return j + float64(prefix)*scale*(1-j)
}

func referenceJaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	trans := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	t := float64(trans) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// randomASCII draws n bytes from a small alphabet, so pairs share
// characters and exercise matching and transpositions.
func randomASCII(rng *rand.Rand, n int) string {
	const alphabet = "aabcdeK yz-"
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// maskEdges are pairs at the kernel's 64-bit mask boundary: 63, 64 and
// 65 bytes (the last takes the rune path), both sides at 64, windows
// that reach bit 63 (hi == 64), and a 64-byte target against 1- and
// 2-byte candidates, whose window covers all of them.
func maskEdges() [][2]string {
	x := func(n int) string { return strings.Repeat("x", n) }
	ab := strings.Repeat("ab", kernelMax/2)
	return [][2]string{
		{x(kernelMax), x(kernelMax-1) + "y"},
		{x(kernelMax - 1), x(kernelMax)},
		{x(kernelMax), x(kernelMax + 1)},
		{x(kernelMax + 1), x(kernelMax - 1)},
		{ab, ab[1:] + "a"},
		{ab, strings.Repeat("ba", kernelMax/2)},
		{"y" + x(kernelMax-1), x(kernelMax-1) + "y"},
		{x(kernelMax-1) + "y", "y" + x(kernelMax-1)},
		{x(kernelMax), "x"}, {x(kernelMax), "xx"},
		{x(kernelMax-1) + "y", "y"}, {x(kernelMax-2) + "yx", "xy"},
		{"x", x(kernelMax)}, {"yx", x(kernelMax-1) + "y"},
	}
}

// pairs is the shared corpus: random pairs up to twice the kernel's
// length limit, so both paths and the bound's long targets are drawn,
// plus the hand-picked edges.
func pairs(rng *rand.Rand) [][2]string {
	out := [][2]string{
		{"", ""}, {"", "a"}, {"a", ""}, {"a", "a"}, {"a", "b"},
		{"aaaa", "aaa"}, {"aaaaaaaa", "a"}, {"abab", "baba"},
		{"MARTHA", "MARHTA"}, {"Kennedys", "Kennedy"},
	}
	out = append(out, maskEdges()...)
	for i := 0; i < 3000; i++ {
		a := randomASCII(rng, rng.Intn(2*kernelMax+1))
		b := randomASCII(rng, rng.Intn(2*kernelMax+1))
		if i%3 == 0 && len(a) > 0 {
			// A near copy of a: close pairs score above any threshold.
			bs := []byte(a)
			k := rng.Intn(len(bs))
			bs[k], bs[len(bs)-1] = bs[len(bs)-1], bs[k]
			b = string(bs)
		}
		out = append(out, [2]string{a, b})
	}
	return out
}

func TestJaroWinklerASCIIKernelMatchesRunePath(t *testing.T) {
	for _, p := range pairs(rand.New(rand.NewSource(1))) {
		a, b := p[0], p[1]
		if got, want := Jaro(a, b), referenceJaro(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Jaro(%q, %q) = %v, rune path %v", a, b, got, want)
		}
		if got, want := JaroWinkler(a, b), referenceJaroWinkler(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("JaroWinkler(%q, %q) = %v, rune path %v", a, b, got, want)
		}
	}
}

// TestJaroWinklerKernelDifferential drives the kernel over a million
// seeded small-alphabet pairs of 0–64 bytes, the whole range it takes,
// against the frozen rune path.
func TestJaroWinklerKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1_000_000; i++ {
		a := randomASCII(rng, rng.Intn(kernelMax+1))
		b := randomASCII(rng, rng.Intn(kernelMax+1))
		if got, want := Jaro(a, b), referenceJaro(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Jaro(%q, %q) = %v, rune path %v", a, b, got, want)
		}
		if got, want := JaroWinkler(a, b), referenceJaroWinkler(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("JaroWinkler(%q, %q) = %v, rune path %v", a, b, got, want)
		}
	}
}

// TestJaroWinklerFallback pins which inputs take which path: the ASCII
// kernel allocates nothing, so an allocation shows the rune path ran.
func TestJaroWinklerFallback(t *testing.T) {
	long := strings.Repeat("Kerouac ", kernelMax/8) + "x" // one byte too long
	cases := []struct {
		a, b   string
		kernel bool
	}{
		{"Jack Kerouac", "Jack Kerouacs", true},
		{"", "", true},
		{long[:kernelMax], long[1 : kernelMax+1], true},
		{long, "Kerouac", false},
		{"Kerouac", long, false},
		{"Zürich", "Zurich", false},
		{"Zurich", "Zürich", false},
		{"caf\xff", "cafe", false}, // invalid UTF-8 is not ASCII
	}
	for _, tc := range cases {
		allocs := testing.AllocsPerRun(10, func() { JaroWinkler(tc.a, tc.b) })
		if tc.kernel != (allocs == 0) {
			t.Errorf("JaroWinkler(%q, %q): %v allocs, want kernel=%v", tc.a, tc.b, allocs, tc.kernel)
		}
		if got, want := JaroWinkler(tc.a, tc.b), referenceJaroWinkler(tc.a, tc.b); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("JaroWinkler(%q, %q) = %v, rune path %v", tc.a, tc.b, got, want)
		}
	}
}

func TestJaroWinklerBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ps := pairs(rng)
	// Adversarial pairs: the bound assumes no transpositions and counts
	// matches outside Jaro's window, so anagrams, reversals and repeats
	// are where it is loosest, and equal prefixes where it is tightest.
	for _, s := range []string{"Viking Press", "Kennedy", "aaaab", "abcdefgh", "Ted Kennedys"} {
		r := []byte(s)
		for i, j := 0, len(r)-1; i < j; i, j = i+1, j-1 {
			r[i], r[j] = r[j], r[i]
		}
		ps = append(ps, [2]string{s, string(r)}, [2]string{s, s[:4] + string(r)}, [2]string{s, s + s}, [2]string{s, s[:1]})
		for k := 0; k < 20; k++ {
			perm := []byte(s)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			ps = append(ps, [2]string{s, string(perm)})
		}
	}
	rejected := 0
	for _, p := range ps {
		a, b := p[0], p[1]
		jb := NewJaroWinklerBound(a)
		ub, score := jb.Max(b), JaroWinkler(a, b)
		if ub < score {
			t.Fatalf("bound(%q, %q) = %v below JaroWinkler %v", a, b, ub, score)
		}
		for _, theta := range []float64{0.5, 0.7, 0.9} {
			if ub < theta-1e-9 {
				rejected++
				if score >= theta {
					t.Fatalf("bound rejected (%q, %q) at θ=%v but JaroWinkler = %v", a, b, theta, score)
				}
			}
		}
	}
	if rejected == 0 {
		t.Fatal("the bound rejected nothing; the test corpus is too easy")
	}
	// The inputs the bound does not cover get the trivial bound.
	var zero JaroWinklerBound
	uncovered := []struct {
		jb JaroWinklerBound
		s  string
	}{
		{zero, "abc"},
		{NewJaroWinklerBound(strings.Repeat("a", math.MaxUint8+1)), "zzz"},
		{NewJaroWinklerBound("Zürich"), "zzz"},
		{NewJaroWinklerBound("zzz"), "Zürich"},
	}
	for _, u := range uncovered {
		if got := u.jb.Max(u.s); got != 1 {
			t.Errorf("bound(%q, %q) = %v, want 1", u.jb.target, u.s, got)
		}
	}
}

func BenchmarkJaroWinklerBound(b *testing.B) {
	jb := NewJaroWinklerBound("Jack Kerouac")
	for i := 0; i < b.N; i++ {
		jb.Max("Jack Kerouacs")
	}
}

// FuzzJaroWinkler checks, on any pair of strings, that the kernel
// agrees with the rune path bit for bit, that the score lies in [0, 1],
// and that the bound is never below the score.
func FuzzJaroWinkler(f *testing.F) {
	seeds := [][2]string{{"", ""}, {"MARTHA", "MARHTA"}, {"Jack Kerouac", "Jack Kerouacs"}, {"Zürich", "Zurich"}, {"aaaa", "aa"}}
	for _, p := range append(seeds, maskEdges()...) {
		f.Add(p[0], p[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		score := JaroWinkler(a, b)
		if want := referenceJaroWinkler(a, b); math.Float64bits(score) != math.Float64bits(want) {
			t.Fatalf("JaroWinkler(%q, %q) = %v, rune path %v", a, b, score, want)
		}
		if score < 0 || score > 1 {
			t.Fatalf("JaroWinkler(%q, %q) = %v outside [0, 1]", a, b, score)
		}
		jb := NewJaroWinklerBound(a)
		if ub := jb.Max(b); ub < score {
			t.Fatalf("bound(%q, %q) = %v below JaroWinkler %v", a, b, ub, score)
		}
	})
}
