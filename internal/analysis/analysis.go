// Package analysis is sapphire's in-repo static-analysis framework: a
// small, dependency-free sibling of golang.org/x/tools/go/analysis
// (which this module deliberately does not vendor) plus the
// repo-specific analyzers that machine-enforce the store's lock,
// atomic, and protocol contracts. The invariants themselves are prose
// in internal/store/doc.go, internal/sparql/doc.go, and
// docs/ARCHITECTURE.md; each analyzer turns one of them into a build
// failure:
//
//   - pinlock: inside a Match/MatchIDs callback, or anywhere between
//     PinRead and its release, calls that acquire store or dictionary
//     locks deadlock once a writer queues on the RWMutex
//     (internal/store/doc.go, "ID-level API contract").
//   - atomicfield: no call of a package-level sync/atomic function;
//     atomics are typed (atomic.Uint64, atomic.Pointer[T]), so a
//     plain load or store next to an atomic one cannot compile.
//   - errcode: the HTTP error-envelope code set is closed — string
//     literals flowing into a `code` position must belong to the
//     declared Code* constants, and every declared code must appear in
//     a status/client mapping switch (internal/endpoint/errors.go).
//   - unchecked: an ignored Close or Sync error on the durability path
//     is a silent durability hole (internal/store/persist,
//     internal/bootstrap).
//   - testonly: an exported name under internal/ that no non-test file
//     of the module references is API only tests reach; it runs over
//     the whole Module, not one package.
//
// cmd/sapphire-vet is the multichecker binary that runs all of them
// (plus stock `go vet`) over package patterns; `make lint` and the CI
// lint job fail the build on any diagnostic. A violation the code has
// a documented reason to commit is suppressed in place with
//
//	//sapphire:allow <analyzer> <reason citing the doc section>
//
// on, or on the line above, the flagged line. The reason is mandatory:
// an empty one is itself a diagnostic. See docs/STATIC_ANALYSIS.md for
// the full catalogue with example diagnostics.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one static check. It mirrors the shape of
// x/tools' analysis.Analyzer so the analyzers port over mechanically if
// the module ever takes on the real dependency.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //sapphire:allow suppression comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check over one package, reporting findings
	// through pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Module holds every package of the run, for analyzers whose
	// finding in one package depends on the others (testonly).
	Module *Module

	diags *[]Diagnostic
}

// A Diagnostic is one finding, positioned precisely at the offending
// expression.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over one package of m and returns the
// surviving diagnostics: suppressed findings are dropped, malformed
// suppressions (no reason) are added, and the result is sorted by
// position. Analyzer Run errors are returned as-is — they mean the
// analyzer could not do its job, not that the code is clean.
func Run(m *Module, pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Module:    m,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	diags = applySuppressions(pkg.Fset, pkg.Files, diags)
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	// A call can sit in two overlapping regions (a callback literal
	// under a pin, say); one diagnostic per (position, analyzer) is
	// enough to fail the build and name the rule.
	dedup := diags[:0]
	for i, d := range diags {
		if i > 0 && d.Pos == diags[i-1].Pos && d.Analyzer == diags[i-1].Analyzer {
			continue
		}
		dedup = append(dedup, d)
	}
	return dedup, nil
}

// All returns the full analyzer suite in the order sapphire-vet runs
// it. The unchecked analyzer is scoped by the caller (it only makes
// sense on durability-critical packages); these run everywhere.
func All() []*Analyzer {
	return []*Analyzer{PinLock, AtomicField, ErrCode, TestOnly}
}
