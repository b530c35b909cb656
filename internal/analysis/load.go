package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one type-checked package ready for analysis: the parsed
// files (with comments, for suppressions), the types.Package, and a
// fully populated types.Info.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath   string
	Dir          string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

func runGoList(dir string, args ...string) ([]listPkg, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		msg := err.Error()
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			msg = strings.TrimSpace(string(ee.Stderr))
		}
		return nil, fmt.Errorf("go %s: %s", strings.Join(args[:2], " "), msg)
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadPatterns loads the module packages matching the go package
// patterns (e.g. "./..."), type-checked from source against compiler
// export data for their dependencies (`go list -export` materializes
// it into the build cache — no network, no extra modules). Test files
// are not analyzed: the invariants live in the shipped code, and the
// testdata trees under internal/analysis deliberately violate them.
func LoadPatterns(dir string, patterns ...string) ([]*Package, error) {
	return load(dir, false, patterns)
}

// LoadCallers loads every package of the module rooted at dir, test
// files included, for a Module's Callers: a nested module whose code
// and tests use this module's internal API (the benchmark module).
// An external test package is checked as its own package.
func LoadCallers(dir string) ([]*Package, error) {
	return load(dir, true, []string{"./..."})
}

func load(dir string, tests bool, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets, err := runGoList(dir, append([]string{"list", "-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	depsArgs := []string{"list", "-deps", "-export", "-json=ImportPath,Export"}
	if tests {
		depsArgs = append(depsArgs, "-test")
	}
	deps, err := runGoList(dir, append(depsArgs, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range deps {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", lookup)

	var out []*Package
	for _, p := range targets {
		files := p.GoFiles
		if tests {
			files = append(files, p.TestGoFiles...)
		}
		if len(files) > 0 {
			pkg, err := checkFiles(fset, imp, p.ImportPath, p.Dir, files)
			if err != nil {
				return nil, err
			}
			out = append(out, pkg)
		}
		if tests && len(p.XTestGoFiles) > 0 {
			pkg, err := checkFiles(fset, imp, p.ImportPath+"_test", p.Dir, p.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

func checkFiles(fset *token.FileSet, imp types.Importer, pkgPath, dir string, names []string) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", pkgPath, err)
	}
	return &Package{PkgPath: pkgPath, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
