package analysis

import (
	"strings"
	"testing"
)

// The analyzers against their golden fixtures. Each fixture
// package contains both violating lines (tagged `// want`) and
// compliant ones that must stay silent; runWant enforces the 1:1 match
// in both directions.

func TestPinLockGolden(t *testing.T)     { runWant(t, "pinlock", PinLock) }
func TestAtomicFieldGolden(t *testing.T) { runWant(t, "atomicfield", AtomicField) }
func TestErrCodeGolden(t *testing.T)     { runWant(t, "errcode", ErrCode) }
func TestUncheckedGolden(t *testing.T)   { runWant(t, "unchecked", Unchecked) }

// TestTestOnlyGolden runs testonly over a fixture module: lib is the
// internal package analyzed, app a non-test package of the same module
// and caller a caller module, each type-checked on its own so every one
// holds its own copy of lib.
func TestTestOnlyGolden(t *testing.T) {
	lib := loadFixture(t, "testonly/internal/lib")
	m := &Module{
		Pkgs:    []*Package{lib, loadFixture(t, "testonly/app")},
		Callers: []*Package{loadFixture(t, "testonly/caller")},
	}
	checkWant(t, m, lib, TestOnly)
}

// TestSuppression pins the //sapphire:allow machinery on a fixture
// with three pinlock violations: one suppressed by a line-above
// comment, one by a trailing comment, and one under a reason-less
// suppression that must both fail to suppress and be reported itself.
func TestSuppression(t *testing.T) {
	pkg := loadFixture(t, "suppressed")
	diags, err := Run(&Module{Pkgs: []*Package{pkg}}, pkg, []*Analyzer{PinLock})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := diagStrings(pkg.Fset, diags)
	if len(got) != 2 {
		t.Fatalf("want exactly 2 surviving diagnostics (unsuppressed AddAll + malformed suppression), got %d:\n%s",
			len(got), strings.Join(got, "\n"))
	}
	var sawMalformed, sawAddAll bool
	for _, s := range got {
		if strings.Contains(s, "malformed //sapphire:allow") && strings.Contains(s, "non-empty reason") {
			sawMalformed = true
		}
		if strings.Contains(s, "pinlock") && strings.Contains(s, "AddAll") {
			sawAddAll = true
		}
	}
	if !sawMalformed {
		t.Errorf("empty-reason suppression was not reported as malformed:\n%s", strings.Join(got, "\n"))
	}
	if !sawAddAll {
		t.Errorf("empty-reason suppression silently suppressed the AddAll violation:\n%s", strings.Join(got, "\n"))
	}
	for _, s := range got {
		if strings.Contains(s, "Lookup") || strings.Contains(s, "Count") {
			t.Errorf("well-formed suppression did not suppress: %s", s)
		}
	}
}
