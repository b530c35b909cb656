// Command sapphire-vet is the repo's multichecker: it runs stock
// `go vet` plus the sapphire-specific analyzers of internal/analysis
// over package patterns, and exits nonzero on any diagnostic. This is
// what `make lint` and the CI lint job run; the invariants it enforces
// are catalogued in docs/STATIC_ANALYSIS.md.
//
// Usage:
//
//	sapphire-vet [flags] [package patterns]
//
// With no patterns it checks ./... . Flags:
//
//	-novet   skip the stock `go vet` passes (the custom analyzers
//	         only; used by tests and for quick iteration on a single
//	         analyzer's output)
//	-list    print the analyzer roster and exit
//
// The errcheck-style unchecked Close/Sync analyzer runs on the
// durability path only; the others run on every matched package.
// testonly counts callers in the whole module, whichever packages are
// matched, and in the nested benchmark module (tests included) when
// ./benchmark/go.mod exists; run it from the module root.
//
// Suppress a finding in place with
//
//	//sapphire:allow <analyzer> <reason>
//
// on (or directly above) the flagged line; the reason is mandatory and
// should cite the doc section that justifies the exception.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"sapphire/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// uncheckedPkgs scopes the unchecked analyzer to the durability path,
// the store's data directory and the saved initialization cache:
// ignored Close/Sync errors there swallow fsync failures. Repo-wide it
// would flood on idiomatic deferred body.Close() calls.
var uncheckedPkgs = []string{"internal/store/persist", "internal/bootstrap"}

// callerModule is the nested module whose code and tests count as
// callers for testonly: the benchmark drives internal API and cannot
// be edited together with it.
const callerModule = "benchmark"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sapphire-vet", flag.ExitOnError)
	var (
		novet = fs.Bool("novet", false, "skip the stock `go vet` passes")
		list  = fs.Bool("list", false, "list analyzers and exit")
	)
	fs.Parse(args)

	if *list {
		for _, a := range append(analysis.All(), analysis.Unchecked) {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	failed := false

	// Stock go vet first: the standard passes (printf, copylocks,
	// atomic misuse, ...) stay part of the gate, and unlike the custom
	// analyzers they also cover test files.
	if !*novet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = stdout
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			if _, ok := err.(*exec.ExitError); !ok {
				fmt.Fprintf(stderr, "sapphire-vet: go vet: %v\n", err)
			}
			failed = true
		}
	}

	pkgs, err := analysis.LoadPatterns(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "sapphire-vet: %v\n", err)
		return 2
	}

	// testonly needs every caller whichever packages are checked: the
	// whole module, and the benchmark module with its tests.
	m := &analysis.Module{Pkgs: pkgs}
	if len(patterns) != 1 || patterns[0] != "./..." {
		if m.Callers, err = analysis.LoadPatterns(".", "./..."); err != nil {
			fmt.Fprintf(stderr, "sapphire-vet: %v\n", err)
			return 2
		}
	}
	if _, err := os.Stat(filepath.Join(callerModule, "go.mod")); err == nil {
		bench, err := analysis.LoadCallers(callerModule)
		if err != nil {
			fmt.Fprintf(stderr, "sapphire-vet: %v\n", err)
			return 2
		}
		m.Callers = append(m.Callers, bench...)
	}

	count := 0
	for _, pkg := range pkgs {
		analyzers := analysis.All()
		for _, p := range uncheckedPkgs {
			if strings.HasSuffix(pkg.PkgPath, "/"+p) {
				analyzers = append(analyzers, analysis.Unchecked)
			}
		}
		diags, err := analysis.Run(m, pkg, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "sapphire-vet: %v\n", err)
			return 2
		}
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s: %s: %s\n", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
			count++
		}
	}
	if count > 0 {
		fmt.Fprintf(stderr, "sapphire-vet: %d diagnostic(s)\n", count)
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}
