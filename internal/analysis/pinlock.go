package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PinLock enforces the deadlock rule of internal/store/doc.go
// ("ID-level API contract") and docs/ARCHITECTURE.md ("PinRead"):
// Match/MatchIDs callbacks run under the store read lock, and code
// holding a PinRead pin already owns that read lock — neither may call
// a store or dictionary method that acquires locks again, because the
// moment a writer queues on the RWMutex a nested RLock deadlocks.
// ResolveID is the designed exception (lock-free by construction), so
// it is not in the banned set.
//
// The check is intraprocedural plus one package-local closure: a banned
// call is flagged when it appears (a) lexically inside a function
// literal passed as the callback of a Match/MatchIDs/MatchIDsPinned
// call on a store-like receiver, (b) in a function after a PinRead
// call whose release has not yet run (a deferred release pins the
// rest of the function), or (c) behind a call to a
// same-package function that transitively commits (a) or (b)'s sin.
// Cross-package reachability is out of scope — the store's exported
// surface is the boundary the rule is written against.
var PinLock = &Analyzer{
	Name: "pinlock",
	Doc:  "flag lock-acquiring store/dict calls inside Match callbacks or under a PinRead pin",
	Run:  runPinLock,
}

// bannedLockMethods are the store.Store / dictionary methods that
// acquire the store or dictionary lock (internal/store/doc.go bans
// "locking accessors (Lookup, Count, ...)" — this is the closed list).
// PinRead itself is included: re-pinning under a pin re-acquires the
// store RLock.
var bannedLockMethods = map[string]bool{
	"Lookup":                 true,
	"Match":                  true,
	"MatchIDs":               true,
	"MatchSlice":             true,
	"Add":                    true,
	"AddAll":                 true,
	"MustAdd":                true,
	"Intern":                 true,
	"Contains":               true,
	"Len":                    true,
	"Count":                  true,
	"CountIDs":               true,
	"CardinalityEstimate":    true,
	"CardinalityEstimateIDs": true,
	"Subjects":               true,
	"Predicates":             true,
	"PinRead":                true,
}

// callbackEntryMethods start a region whose callback argument runs
// under the store read lock. The unpinned names only count on a receiver
// from a package named "store" (remote Graph adapters run their Match
// callbacks lock-free); the pinned name is unambiguous anywhere, as is
// any receiver whose method set includes PinRead.
var callbackEntryMethods = map[string]bool{
	"Match":          true,
	"MatchIDs":       true,
	"MatchIDsPinned": true,
}

func isStoreLike(f *types.Func) bool {
	if n := recvNamed(f); n != nil {
		if pkgLastSegment(n.Obj().Pkg()) == "store" {
			return true
		}
		return hasMethod(n, "PinRead")
	}
	// Interface methods resolve through Selections to the interface's
	// *types.Func whose receiver is the interface type itself; fall
	// back to the declaring package.
	return pkgLastSegment(f.Pkg()) == "store"
}

// isBannedCall reports whether call statically invokes a banned locking
// method on a store-like receiver.
func isBannedCall(info *types.Info, call *ast.CallExpr) (*types.Func, bool) {
	f := calleeFunc(info, call)
	if f == nil || !bannedLockMethods[f.Name()] {
		return nil, false
	}
	if recvNamed(f) == nil && f.Type().(*types.Signature).Recv() == nil {
		return nil, false // plain function that happens to share a name
	}
	if !isStoreLike(f) {
		return nil, false
	}
	return f, true
}

// isCallbackEntry reports whether call is a Match-family call whose
// func-literal argument (if any) will run under the store read lock.
func isCallbackEntry(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	if f == nil || !callbackEntryMethods[f.Name()] {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return f.Name() == "MatchIDsPinned" || isStoreLike(f)
}

// fnSummary is the package-local call-graph node used for the
// transitive closure: the banned calls a function makes directly, and
// the same-package functions it calls.
type fnSummary struct {
	banned []*ast.CallExpr
	calls  []*types.Func
}

func runPinLock(pass *Pass) error {
	info := pass.TypesInfo

	// Pass 1: summarize every declared function in the package.
	summaries := map[*types.Func]*fnSummary{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			sum := &fnSummary{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if _, bad := isBannedCall(info, call); bad {
					sum.banned = append(sum.banned, call)
				} else if f := calleeFunc(info, call); f != nil && f.Pkg() == pass.Pkg {
					sum.calls = append(sum.calls, f)
				}
				return true
			})
			summaries[obj] = sum
		}
	}

	// reach reports a banned call transitively reachable from f, with
	// the function that makes it (for the diagnostic message).
	type reached struct {
		call *ast.CallExpr
		via  *types.Func
	}
	memo := map[*types.Func]*reached{}
	var visiting map[*types.Func]bool
	var reach func(f *types.Func) *reached
	reach = func(f *types.Func) *reached {
		if r, ok := memo[f]; ok {
			return r
		}
		if visiting[f] {
			return nil
		}
		visiting[f] = true
		defer delete(visiting, f)
		sum := summaries[f]
		if sum == nil {
			memo[f] = nil
			return nil
		}
		if len(sum.banned) > 0 {
			r := &reached{call: sum.banned[0], via: f}
			memo[f] = r
			return r
		}
		for _, callee := range sum.calls {
			if r := reach(callee); r != nil {
				memo[f] = r
				return r
			}
		}
		memo[f] = nil
		return nil
	}
	visiting = map[*types.Func]bool{}

	// checkRegion flags banned calls (direct or via a package-local
	// callee) inside one locked region. skipNested avoids doubly
	// reporting calls that sit inside a nested callback literal — the
	// nested literal forms its own region and is checked separately.
	checkRegion := func(body ast.Node, context string, after token.Pos, until token.Pos) {
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if call.Pos() < after || (until != token.NoPos && call.Pos() >= until) {
				return true
			}
			if f, bad := isBannedCall(info, call); bad {
				pass.Reportf(call.Pos(),
					"(%s).%s acquires store/dict locks %s; a nested lock deadlocks once a writer queues — use ResolveID or hoist the call (internal/store/doc.go \"ID-level API contract\")",
					typeString(f), f.Name(), context)
				return true
			}
			if f := calleeFunc(info, call); f != nil && f.Pkg() == pass.Pkg {
				if r := reach(f); r != nil {
					bf, _ := isBannedCall(info, r.call)
					pass.Reportf(call.Pos(),
						"call to %s %s eventually acquires store/dict locks (via %s calling (%s).%s at %s) — internal/store/doc.go \"ID-level API contract\"",
						f.Name(), context, r.via.Name(), typeString(bf), bf.Name(),
						pass.Fset.Position(r.call.Pos()))
				}
			}
			return true
		})
	}

	for _, file := range pass.Files {
		// Rule (a): callback literals of Match-family calls.
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isCallbackEntry(info, call) {
				return true
			}
			name := calleeFunc(info, call).Name()
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					checkRegion(lit.Body, "inside a "+name+" callback", token.NoPos, token.NoPos)
				}
			}
			return true
		})

		// Rule (b): statements between a PinRead call and its release.
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPinRegions(pass, fd.Body, checkRegion)
		}
	}
	return nil
}

// checkPinRegions finds `rel := x.PinRead()` inside body and flags
// banned calls between it and a plain (non-deferred) `rel()` call; with
// no release call — or only a deferred one — the region runs to the end
// of the function.
func checkPinRegions(pass *Pass, body *ast.BlockStmt, checkRegion func(ast.Node, string, token.Pos, token.Pos)) {
	info := pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(info, call)
		if f == nil || f.Name() != "PinRead" || !isStoreLike(f) {
			return true
		}
		var relObj types.Object
		if len(as.Lhs) == 1 {
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				relObj = info.Defs[id]
				if relObj == nil {
					relObj = info.Uses[id]
				}
			}
		}
		until := token.NoPos
		if relObj != nil {
			ast.Inspect(body, func(m ast.Node) bool {
				if until != token.NoPos {
					return false
				}
				if _, isDefer := m.(*ast.DeferStmt); isDefer {
					return false // defer rel() pins the rest of the function
				}
				es, ok := m.(*ast.ExprStmt)
				if !ok {
					return true
				}
				rc, ok := ast.Unparen(es.X).(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := ast.Unparen(rc.Fun).(*ast.Ident); ok && info.Uses[id] == relObj && rc.Pos() > call.End() {
					until = rc.Pos()
				}
				return true
			})
		}
		checkRegion(body, "while holding a PinRead pin", call.End(), until)
		return true
	})
}

// typeString renders a method's receiver type compactly for messages.
func typeString(f *types.Func) string {
	sig := f.Type().(*types.Signature)
	if sig.Recv() == nil {
		return f.Pkg().Name()
	}
	t := sig.Recv().Type()
	if n, ok := named(t); ok {
		return n.Obj().Pkg().Name() + "." + n.Obj().Name()
	}
	return t.String()
}
