package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module (or a
// standalone fixture directory loaded with LoadDir).
type Package struct {
	// Path is the import path ("homesight/internal/corrsim").
	Path string
	// Dir is the absolute source directory.
	Dir string
	// Fset is the file set shared by every package of one Module.
	Fset *token.FileSet
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types and Info carry the go/types results; Info is always non-nil.
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checker diagnostics. Analysis still runs on
	// a package with type errors, but the driver reports them separately.
	TypeErrors []error
}

// Module is a loaded Go module: every non-test, non-testdata package,
// parsed and type-checked with the stdlib source importer (no external
// dependencies, matching this module's stdlib-only constraint). It loads
// one package at a time and is not safe for concurrent use.
type Module struct {
	// Root is the directory containing go.mod; Path is the module path.
	Root, Path string
	Fset       *token.FileSet

	pkgs map[string]*Package
	// order holds the loaded packages in the order Load finished them.
	order []*Package
	// loading marks the packages Load is inside, so an import cycle is an
	// error rather than a recursion the type checker would chase forever.
	loading map[string]bool
	// std is the stdlib source importer; it caches each package it checks.
	std types.ImporterFrom
}

// FindModuleRoot walks up from dir to the nearest go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// NewModule prepares a loader rooted at the module containing dir.
func NewModule(dir string) (*Module, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The source importer type-checks stdlib dependencies from GOROOT/src.
	// Cgo-flavoured variants (net, os/user) cannot be type-checked without
	// running cgo, so force the pure-Go build of the standard library.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("source importer does not implement ImporterFrom")
	}
	return &Module{
		Root:    root,
		Path:    modPath,
		Fset:    fset,
		pkgs:    map[string]*Package{},
		std:     std,
		loading: map[string]bool{},
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// PackageDirs enumerates every directory under the module root holding at
// least one non-test .go file, skipping testdata, vendor, hidden and
// underscore-prefixed directories. Returned paths are import paths.
func (m *Module) PackageDirs() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(m.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != m.Root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if len(nonTestGoFiles(path)) == 0 {
			return nil
		}
		rel, err := filepath.Rel(m.Root, path)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, m.Path)
		} else {
			paths = append(paths, m.Path+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	sort.Strings(paths)
	return paths, err
}

// LoadAll loads every package of the module and returns them in the
// order Load finished them. Load type-checks every module package a
// package imports before the package itself, so that order is a
// dependency order: each package comes after the module packages it
// imports.
func (m *Module) LoadAll() ([]*Package, error) {
	paths, err := m.PackageDirs()
	if err != nil {
		return nil, err
	}
	for _, path := range paths {
		if _, err := m.Load(path); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return m.order, nil
}

// Load loads (or returns the cached) package at an import path inside
// the module; the type checker loads its module imports first, through
// moduleImporter.
func (m *Module) Load(path string) (*Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	if m.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	m.loading[path] = true
	defer delete(m.loading, path)

	dir, ok := m.dirOf(path)
	if !ok {
		return nil, fmt.Errorf("%s is not inside module %s", path, m.Path)
	}
	pkg, err := m.check(path, dir, nonTestGoFiles(dir))
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = pkg
	m.order = append(m.order, pkg)
	return pkg, nil
}

// dirOf maps a module-internal import path to its directory.
func (m *Module) dirOf(path string) (string, bool) {
	if path == m.Path {
		return m.Root, true
	}
	rel, ok := strings.CutPrefix(path, m.Path+"/")
	if !ok {
		return "", false
	}
	return filepath.Join(m.Root, filepath.FromSlash(rel)), true
}

// check parses and type-checks one package's files.
func (m *Module) check(path, dir string, filenames []string) (*Package, error) {
	if len(filenames) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	pkg := &Package{
		Path: path,
		Dir:  dir,
		Fset: m.Fset,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	for _, name := range filenames {
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	conf := types.Config{
		Importer: &moduleImporter{mod: m, dir: dir},
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns an error on any type problem; the collected TypeErrors
	// carry the detail, and a partially-checked package is still analyzable.
	pkg.Types, _ = conf.Check(path, m.Fset, pkg.Files, pkg.Info)
	return pkg, nil
}

// nonTestGoFiles lists the buildable non-test .go files of dir.
func nonTestGoFiles(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// moduleImporter resolves module-internal imports through the Module's own
// loader (so every package is checked exactly once, against the shared
// FileSet) and everything else through the stdlib source importer.
type moduleImporter struct {
	mod *Module
	dir string
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	return mi.ImportFrom(path, mi.dir, 0)
}

func (mi *moduleImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == mi.mod.Path || strings.HasPrefix(path, mi.mod.Path+"/") {
		pkg, err := mi.mod.Load(path)
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("package %s failed to type-check", path)
		}
		return pkg.Types, nil
	}
	return mi.mod.std.ImportFrom(path, srcDir, mode)
}
