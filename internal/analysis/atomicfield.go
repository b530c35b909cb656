package analysis

import (
	"go/ast"
	"go/types"
)

// AtomicField enforces the publication discipline behind the store's
// epoch counter and the dictionary's spine/rank pointers
// (docs/ARCHITECTURE.md "Epoch-versioned result cache" and "Dictionary
// encoding"): every atomic is a typed atomic.Uint64 / atomic.Pointer[T]
// / ..., so no code path can read or write it plainly. The rule is the
// smallest one that keeps that invariant: no call of a package-level
// sync/atomic function (atomic.AddUint64(&x, 1) and kin). A field can
// mix atomic and plain access only through those function forms, and
// the typed methods have receivers, so they pass.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc:  "no package-level sync/atomic function calls: atomics are typed (atomic.Uint64, atomic.Pointer[T], ...)",
	Run:  runAtomicField,
}

func runAtomicField(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := calleeFunc(pass.TypesInfo, call)
			if f != nil && f.Pkg() != nil && f.Pkg().Path() == "sync/atomic" && f.Type().(*types.Signature).Recv() == nil {
				pass.Reportf(call.Pos(), "call of sync/atomic.%s: use a typed atomic (atomic.Uint64, atomic.Pointer[T], ...) so no access can bypass it", f.Name())
			}
			return true
		})
	}
	return nil
}
