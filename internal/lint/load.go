package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the import path diagnostics and per-package policies
	// key on (e.g. "repro/internal/snr").
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages from source. Every Loader of
// a process shares one FileSet and one stdlib "source" importer, so
// the standard library is type-checked once per process (a test binary
// with a Loader per fixture included); each Loader keeps its own cache
// of the packages it loaded, so two loads that reuse an import path do
// not see each other.
//
// The source importer compiles dependencies from source via go/build:
// no export data, vendored x/tools, or network access is needed, only
// the go toolchain itself. Packages already loaded through this Loader
// shadow the source importer:
// when the driver loads the module in import order, every module
// import resolves to the exact *types.Package that was analyzed, so
// a types.Object seen by a caller is identical to the one its
// defining package exported facts about. (This is what makes
// cross-package fact lookup — mapiter taint through an exported
// helper — work without an object-path encoding.)
type Loader struct {
	fset  *token.FileSet
	cache map[string]*types.Package
}

// source is the process's shared source importer and the FileSet it
// parses into; mu serializes it, since a source importer is not safe
// for concurrent use.
var source struct {
	once sync.Once
	mu   sync.Mutex
	fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a ready Loader.
func NewLoader() *Loader {
	source.once.Do(func() {
		source.fset = token.NewFileSet()
		source.imp = importer.ForCompiler(source.fset, "source", nil)
	})
	return &Loader{fset: source.fset, cache: map[string]*types.Package{}}
}

// Import implements types.Importer, preferring packages this Loader
// already type-checked over the shared source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	source.mu.Lock()
	defer source.mu.Unlock()
	return source.imp.Import(path)
}

// Fset returns the shared FileSet for position rendering.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// LoadFiles parses the named files as one package with the given
// import path and type-checks them. Type errors are fatal: analyzers
// assume a well-typed tree.
func (l *Loader) LoadFiles(path string, filenames []string) (*Package, error) {
	if len(filenames) == 0 {
		return nil, fmt.Errorf("lint: package %s has no files", path)
	}
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for _, e := range typeErrs {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("lint: type-check %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", path, err)
	}
	if _, ok := l.cache[path]; !ok {
		// First group under this path wins (the package proper); an
		// external _test group re-checks the same path and must not
		// shadow it.
		l.cache[path] = tpkg
	}
	return &Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// LoadDir loads every .go file directly inside dir (including
// _test.go files of the same package) as the package with the given
// import path. Files with a package clause different from the
// majority package (external _test packages) are split out and
// type-checked as a separate Package with the same import path, so
// path-keyed policies apply to both halves.
func (l *Loader) LoadDir(path, dir string) ([]*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	byPkgName := map[string][]string{}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		full := filepath.Join(dir, e.Name())
		name, err := packageClause(full)
		if err != nil {
			return nil, err
		}
		byPkgName[name] = append(byPkgName[name], full)
	}
	if len(byPkgName) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	// Load the non-test package first so the source importer can
	// resolve it before an external test package imports it.
	names := make([]string, 0, len(byPkgName))
	for name := range byPkgName {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		ti, tj := strings.HasSuffix(names[i], "_test"), strings.HasSuffix(names[j], "_test")
		if ti != tj {
			return !ti
		}
		return names[i] < names[j]
	})
	var pkgs []*Package
	for _, name := range names {
		files := byPkgName[name]
		sort.Strings(files)
		pkg, err := l.LoadFiles(path, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// packageClause returns the package name declared in the file without
// parsing the whole body.
func packageClause(filename string) (string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, nil, parser.PackageClauseOnly)
	if err != nil {
		return "", fmt.Errorf("lint: parse %s: %w", filename, err)
	}
	return f.Name.Name, nil
}
