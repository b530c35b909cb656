package analysis

import (
	"go/ast"
	"go/types"
)

// Unchecked is the errcheck-style audit for the durability path
// (internal/store/persist, and internal/bootstrap's cache file): a Close or Sync whose error result is
// discarded swallows the very failure the WAL/snapshot machinery
// exists to surface — an fsync error that nobody sees is a silent
// durability hole (docs/ARCHITECTURE.md "Durability"). The analyzer
// flags statement-position calls (including defer and go) to methods
// named Close or Sync that return an error nobody reads.
//
// An explicit `_ = f.Close()` is not flagged: it is the visible,
// greppable acknowledgement that the error is being dropped on
// purpose, the same role //sapphire:allow plays for the other
// analyzers. sapphire-vet scopes this analyzer to durability-critical
// packages — applied repo-wide it would drown in the idiomatic
// deferred body.Close() of HTTP clients.
var Unchecked = &Analyzer{
	Name: "unchecked",
	Doc:  "Close/Sync error results on the durability path must be read",
	Run:  runUnchecked,
}

func runUnchecked(pass *Pass) error {
	info := pass.TypesInfo

	check := func(call *ast.CallExpr, how string) {
		f := calleeFunc(info, call)
		if f == nil {
			return
		}
		switch f.Name() {
		case "Close", "Sync", "close", "sync":
			// The unexported spellings matter here too: the WAL's
			// close/sync wrappers are exactly the calls whose errors
			// must not vanish.
		default:
			return
		}
		sig, ok := f.Type().(*types.Signature)
		if !ok || sig.Results().Len() == 0 {
			return
		}
		errType := types.Universe.Lookup("error").Type()
		returnsErr := false
		for i := 0; i < sig.Results().Len(); i++ {
			if types.Identical(sig.Results().At(i).Type(), errType) {
				returnsErr = true
			}
		}
		if !returnsErr {
			return
		}
		pass.Reportf(call.Pos(),
			"%s error %s: a swallowed %s failure is a silent durability hole — check it, fold it into the return, or `_ =` it deliberately (ARCHITECTURE.md \"Durability\")",
			f.Name(), how, f.Name())
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					check(call, "discarded")
				}
			case *ast.DeferStmt:
				check(n.Call, "discarded by defer")
			case *ast.GoStmt:
				check(n.Call, "discarded by go")
			}
			return true
		})
	}
	return nil
}
