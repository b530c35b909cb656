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
//	-novet            skip the stock `go vet` passes (the custom
//	                  analyzers only; used by tests and for quick
//	                  iteration on a single analyzer's output)
//	-unchecked-pkgs   comma-separated import-path suffixes on which the
//	                  errcheck-style unchecked Close/Sync analyzer runs
//	                  (default: the durability path). The other three
//	                  analyzers run on every matched package.
//	-list             print the analyzer roster and exit
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
	"strings"

	"sapphire/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// uncheckedDefault scopes the unchecked analyzer to the durability
// path: ignored Close/Sync errors there swallow fsync failures.
// Repo-wide it would flood on idiomatic deferred body.Close() calls.
const uncheckedDefault = "internal/store/persist"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sapphire-vet", flag.ExitOnError)
	var (
		novet        = fs.Bool("novet", false, "skip the stock `go vet` passes")
		uncheckedPkg = fs.String("unchecked-pkgs", uncheckedDefault,
			"comma-separated import-path suffixes the unchecked analyzer applies to")
		list = fs.Bool("list", false, "list analyzers and exit")
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

	var uncheckedSuffixes []string
	for _, s := range strings.Split(*uncheckedPkg, ",") {
		if s = strings.TrimSpace(s); s != "" {
			uncheckedSuffixes = append(uncheckedSuffixes, s)
		}
	}

	count := 0
	for _, pkg := range pkgs {
		analyzers := analysis.All()
		for _, suf := range uncheckedSuffixes {
			if pkg.PkgPath == suf || strings.HasSuffix(pkg.PkgPath, "/"+suf) || strings.HasSuffix(pkg.PkgPath, suf) {
				analyzers = append(analyzers, analysis.Unchecked)
				break
			}
		}
		diags, err := analysis.Run(pkg, analyzers)
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
