package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// runWant is the golden-fixture driver (the analysistest pattern): it
// loads testdata/src/<pkgPath>, runs the analyzers, and matches the
// diagnostics 1:1 against `// want` comments. Each want comment holds
// one or more backquoted regexps that must each match exactly one
// diagnostic on the comment's line; diagnostics on lines without a
// matching want, and wants no diagnostic matched, both fail the test.
func runWant(t *testing.T, pkgPath string, analyzers ...*Analyzer) {
	t.Helper()
	pkg := loadFixture(t, pkgPath)
	checkWant(t, &Module{Pkgs: []*Package{pkg}}, pkg, analyzers...)
}

func loadFixture(t *testing.T, pkgPath string) *Package {
	t.Helper()
	pkg, err := loadDir(filepath.Join("testdata", "src"), pkgPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", pkgPath, err)
	}
	return pkg
}

// checkWant runs the analyzers over pkg, one package of m, and matches
// the diagnostics against pkg's want comments.
func checkWant(t *testing.T, m *Module, pkg *Package, analyzers ...*Analyzer) {
	t.Helper()
	diags, err := Run(m, pkg, analyzers)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for k, res := range collectWants(t, pkg.Fset, f) {
			wants[key(k)] = append(wants[key(k)], res...)
		}
	}

	for _, d := range diags {
		p := pkg.Fset.Position(d.Pos)
		k := key{p.Filename, p.Line}
		matched := -1
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic at %s: %s: %s", p, d.Analyzer, d.Message)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
}

type wantKey struct {
	file string
	line int
}

// collectWants parses `// want` comments, or `/* want */` ones where a
// line comment must follow: everything after the marker is a sequence
// of backquoted regexps.
func collectWants(t *testing.T, fset *token.FileSet, f *ast.File) map[wantKey][]*regexp.Regexp {
	t.Helper()
	out := map[wantKey][]*regexp.Regexp{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/"))
			if !strings.HasPrefix(text, "want ") {
				continue
			}
			rest := strings.TrimPrefix(text, "want ")
			p := fset.Position(c.Pos())
			k := wantKey{p.Filename, p.Line}
			for {
				rest = strings.TrimSpace(rest)
				if rest == "" {
					break
				}
				if rest[0] != '`' {
					t.Fatalf("%s: malformed want comment (expected backquoted regexp): %s", p, c.Text)
				}
				end := strings.IndexByte(rest[1:], '`')
				if end < 0 {
					t.Fatalf("%s: unterminated regexp in want comment: %s", p, c.Text)
				}
				pat := rest[1 : 1+end]
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", p, pat, err)
				}
				out[k] = append(out[k], re)
				rest = rest[end+2:]
			}
			if len(out[k]) == 0 {
				t.Fatalf("%s: want comment with no regexps: %s", p, c.Text)
			}
		}
	}
	return out
}

// diagStrings renders diagnostics for failure messages and the
// suppression tests.
func diagStrings(fset *token.FileSet, diags []Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, fmt.Sprintf("%s: %s: %s", fset.Position(d.Pos), d.Analyzer, d.Message))
	}
	return out
}

// srcImporter resolves imports for fixture packages: paths that exist
// as directories under root are type-checked from source (recursively),
// anything else is treated as standard library and resolved through
// compiler export data.
type srcImporter struct {
	root string
	fset *token.FileSet
	pkgs map[string]*types.Package
	std  types.ImporterFrom
	// stdExports caches `go list -export` answers for stdlib paths.
	stdExports map[string]string
}

func newSrcImporter(root string) *srcImporter {
	im := &srcImporter{
		root:       root,
		fset:       token.NewFileSet(),
		pkgs:       map[string]*types.Package{},
		stdExports: map[string]string{},
	}
	lookup := func(path string) (io.ReadCloser, error) {
		f, err := im.stdExport(path)
		if err != nil {
			return nil, err
		}
		return os.Open(f)
	}
	im.std = importer.ForCompiler(im.fset, "gc", lookup).(types.ImporterFrom)
	return im
}

func (im *srcImporter) stdExport(path string) (string, error) {
	if f, ok := im.stdExports[path]; ok {
		return f, nil
	}
	pkgs, err := runGoList("", "list", "-export", "-json=ImportPath,Export", path)
	if err != nil {
		return "", err
	}
	for _, p := range pkgs {
		if p.Export != "" {
			im.stdExports[p.ImportPath] = p.Export
		}
	}
	f, ok := im.stdExports[path]
	if !ok {
		return "", fmt.Errorf("no export data for %q", path)
	}
	return f, nil
}

func (im *srcImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := im.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(im.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		pkg, err := im.load(path, dir)
		if err != nil {
			return nil, err
		}
		im.pkgs[path] = pkg.Types
		return pkg.Types, nil
	}
	pkg, err := im.std.ImportFrom(path, im.root, 0)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = pkg
	return pkg, nil
}

func (im *srcImporter) load(path, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	sort.Strings(names)
	return checkFiles(im.fset, im, path, dir, names)
}

// loadDir loads one fixture package (and, transitively, the fixture
// packages it imports) from a GOPATH-style source tree rooted at root:
// package path "a" lives in root/a/*.go. The analyzer golden tests use
// this to type-check deliberately contract-violating code that must
// never be part of the module proper.
func loadDir(root, pkgPath string) (*Package, error) {
	im := newSrcImporter(root)
	return im.load(pkgPath, filepath.Join(root, filepath.FromSlash(pkgPath)))
}
