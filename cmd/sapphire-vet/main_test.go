package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestInjectedViolationFailsGate is the acceptance check that CI fails
// on an injected violation: testdata/injected is a stand-alone module
// whose only package calls a lock-acquiring accessor from inside a
// MatchIDs callback. Running the same entry point `make lint` uses must
// exit nonzero and name the pinlock contract.
func TestInjectedViolationFailsGate(t *testing.T) {
	t.Chdir(filepath.Join("testdata", "injected"))
	var stdout, stderr strings.Builder
	code := run([]string{"-novet", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "pinlock") {
		t.Errorf("diagnostic does not name the pinlock analyzer:\n%s", out)
	}
	if !strings.Contains(out, "injected.go") || !strings.Contains(out, "Lookup") {
		t.Errorf("diagnostic does not point at the injected Lookup call:\n%s", out)
	}
}

// TestCleanModulePassesGate is the control: a module with no violations
// exits zero.
func TestCleanModulePassesGate(t *testing.T) {
	t.Chdir(filepath.Join("testdata", "clean"))
	var stdout, stderr strings.Builder
	if code := run([]string{"-novet", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}

// TestListFlag pins the roster: all four analyzers are wired in.
func TestListFlag(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, name := range []string{"pinlock", "atomicfield", "errcode", "unchecked"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, stdout.String())
		}
	}
}
