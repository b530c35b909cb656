package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// TestOnly reports exported API that only tests reach: an exported
// package-level func, method, type, var or const declared in a
// non-test file of an internal package that no non-test file of the
// module references. Such a name is a second mechanism kept alive by
// its own tests; delete it, or move it into the _test.go that uses it.
// References from the Module's caller packages (the benchmark module,
// its tests included) count, and a method that satisfies some
// interface is exempt because calls through the interface do not name
// it. A test seam that tests of other packages need stays with a
// //sapphire:allow testonly comment naming those tests.
//
// It is the one module-wide analyzer: Run needs the Module to see
// references from other packages.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc:  "exported API under internal/ must have a non-test caller in the module",
	Run:  runTestOnly,
}

// A Module is every package one run sees. Pkgs are the analyzed
// packages, non-test files only. Callers only contribute references
// and interfaces: the rest of the module when only part of it is
// analyzed, and caller modules loaded by LoadCallers.
type Module struct {
	Pkgs    []*Package
	Callers []*Package

	// Built on first use by testonly.
	refs   map[objKey]bool
	ifaces []*types.Interface
	copies map[string][]*types.Package // path → every loaded copy
}

// objKey names a package-level object or method independently of the
// type-check that produced it: each package is checked against export
// data for its imports, so one declaration has a different
// types.Object in every package that sees it.
type objKey struct{ pkg, recv, name string }

func keyOf(obj types.Object) (objKey, bool) {
	if obj == nil || obj.Pkg() == nil {
		return objKey{}, false
	}
	if f, ok := obj.(*types.Func); ok {
		if recv := recvNamed(f.Origin()); recv != nil {
			return objKey{obj.Pkg().Path(), recv.Obj().Name(), f.Name()}, true
		}
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return objKey{}, false // a field, a local or an unnamed interface's method
	}
	return objKey{obj.Pkg().Path(), "", obj.Name()}, true
}

// index collects, once, every object some loaded file names, every
// non-generic interface the loaded packages and their imports declare
// or spell out, and every copy of each package (its source check and
// the export data others imported).
func (m *Module) index() {
	if m.refs != nil {
		return
	}
	m.refs = map[objKey]bool{}
	m.ifaces = []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	m.copies = map[string][]*types.Package{}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		m.copies[p.Path()] = append(m.copies[p.Path()], p)
		for _, n := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(n).(*types.TypeName)
			if !ok {
				continue
			}
			if nt, ok := tn.Type().(*types.Named); ok && nt.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				m.ifaces = append(m.ifaces, it)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range append(append([]*Package(nil), m.Pkgs...), m.Callers...) {
		visit(pkg.Types)
		for _, obj := range pkg.Info.Uses {
			if k, ok := keyOf(obj); ok {
				m.refs[k] = true
			}
		}
		for _, sel := range pkg.Info.Selections {
			if k, ok := keyOf(sel.Obj()); ok {
				m.refs[k] = true
			}
		}
		for _, tv := range pkg.Info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				m.ifaces = append(m.ifaces, it)
			}
		}
	}
}

// satisfiesInterface reports whether method recv.name of package path
// belongs to an interface that recv or *recv implements. Every copy of
// the package is tried, so an interface whose signatures name types of
// that package matches whichever copy it was checked against.
func (m *Module) satisfiesInterface(path, recv, name string) bool {
	for _, p := range m.copies[path] {
		tn, ok := p.Scope().Lookup(recv).(*types.TypeName)
		if !ok {
			continue
		}
		for _, it := range m.ifaces {
			if !hasMethodNamed(it, name) {
				continue
			}
			if types.Implements(tn.Type(), it) || types.Implements(types.NewPointer(tn.Type()), it) {
				return true
			}
		}
	}
	return false
}

func hasMethodNamed(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// underInternal reports whether an import path has an "internal"
// element: the packages whose exported API only this module can use.
func underInternal(path string) bool {
	return strings.Contains("/"+path+"/", "/internal/")
}

func runTestOnly(pass *Pass) error {
	if !underInternal(pass.Pkg.Path()) {
		return nil
	}
	m := pass.Module
	m.index()
	report := func(id *ast.Ident, what string) {
		k, ok := keyOf(pass.TypesInfo.Defs[id])
		if !ok || !id.IsExported() || m.refs[k] {
			return
		}
		name := k.name
		if k.recv != "" {
			if m.satisfiesInterface(k.pkg, k.recv, k.name) {
				return
			}
			name = k.recv + "." + name
		}
		pass.Reportf(id.Pos(), "exported %s %s has no non-test caller in the module: delete it, move it into the test that uses it, or //sapphire:allow testonly <the tests of other packages that need it>", what, name)
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				what := "func"
				if d.Recv != nil {
					what = "method"
				}
				report(d.Name, what)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						report(s.Name, "type")
					case *ast.ValueSpec:
						for _, id := range s.Names {
							report(id, d.Tok.String())
						}
					}
				}
			}
		}
	}
	return nil
}
