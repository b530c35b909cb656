package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicField enforces the publication discipline behind the store's
// epoch counter and the dictionary's spine/rank pointers
// (docs/ARCHITECTURE.md "Epoch-versioned result cache" and "Dictionary
// encoding"): once any code path touches a struct field through
// sync/atomic, every access to that field must go through sync/atomic.
// A lone plain read races with the atomic writers no matter how
// innocent it looks, and the race detector only catches it when a test
// happens to interleave.
//
// The check is per package (the fields in question are unexported): it
// collects every field whose address is passed to a sync/atomic
// function, then flags any other access to those fields that is not
// itself an atomic-call operand. Fields of the typed atomic.Uint64 /
// atomic.Pointer[T] family cannot be accessed non-atomically and need
// no checking — preferring them over the function forms makes this
// analyzer's job vacuous, which is the desired end state.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc:  "a struct field touched via sync/atomic anywhere must be touched via sync/atomic everywhere",
	Run:  runAtomicField,
}

// atomicFnPrefixes are the sync/atomic function families that take an
// address operand.
var atomicFnPrefixes = []string{"Load", "Store", "Add", "Swap", "CompareAndSwap", "And", "Or"}

func isAtomicFn(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync/atomic" {
		return false
	}
	for _, p := range atomicFnPrefixes {
		if strings.HasPrefix(f.Name(), p) {
			return true
		}
	}
	return false
}

// fieldOf resolves a selector expression to the struct field it
// selects, or nil.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
	}
	return nil
}

func runAtomicField(pass *Pass) error {
	info := pass.TypesInfo

	// Pass 1: fields whose address flows into a sync/atomic call, and
	// the selector nodes already accounted for by those calls.
	atomicFields := map[*types.Var]token.Pos{} // field -> one atomic-use position
	blessed := map[*ast.SelectorExpr]bool{}    // selectors inside atomic operands
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicFn(info, call) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if f := fieldOf(info, sel); f != nil {
					if _, seen := atomicFields[f]; !seen {
						atomicFields[f] = call.Pos()
					}
					blessed[sel] = true
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return nil
	}

	// Pass 2: any other access to those fields is a race.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || blessed[sel] {
				return true
			}
			f := fieldOf(info, sel)
			if f == nil {
				return true
			}
			if atomicPos, atomic := atomicFields[f]; atomic {
				pass.Reportf(sel.Sel.Pos(),
					"field %s is accessed via sync/atomic at %s; this plain access races with the atomic ones — use sync/atomic everywhere (or a typed atomic.%s)",
					f.Name(), pass.Fset.Position(atomicPos), suggestTyped(f.Type()))
			}
			return true
		})
	}
	return nil
}

// suggestTyped names the typed atomic wrapper for a field's underlying
// type, for the diagnostic's fix hint.
func suggestTyped(t types.Type) string {
	if b, ok := t.Underlying().(*types.Basic); ok {
		switch b.Kind() {
		case types.Uint32:
			return "Uint32"
		case types.Uint64:
			return "Uint64"
		case types.Int32:
			return "Int32"
		case types.Int64:
			return "Int64"
		case types.Bool:
			return "Bool"
		case types.Uintptr:
			return "Uintptr"
		}
	}
	if _, ok := t.Underlying().(*types.Pointer); ok {
		return "Pointer[T]"
	}
	return "Value"
}
