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
	"runtime"
	"sort"
	"strings"
	"sync"
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
// dependencies, matching this module's stdlib-only constraint).
// LoadAll type-checks independent packages concurrently; all methods are
// safe for concurrent use.
type Module struct {
	// Root is the directory containing go.mod; Path is the module path.
	Root, Path string
	Fset       *token.FileSet

	mu   sync.Mutex
	pkgs map[string]*Package
	// loading guards the serial Load path against import cycles, which
	// the type checker itself would otherwise chase forever.
	loading map[string]bool

	// stdMu serializes the stdlib source importer, which is not safe for
	// concurrent use. Each stdlib package is type-checked once and cached
	// inside the importer, so contention fades after the first wave.
	stdMu sync.Mutex
	std   types.ImporterFrom
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

// LoadAll loads every package of the module, returned in import-path
// order. Files are parsed concurrently, then packages are type-checked
// in dependency waves: a package starts checking as soon as every
// module-internal import it has is done, with independent packages
// checked in parallel across NumCPU workers.
func (m *Module) LoadAll() ([]*Package, error) {
	paths, err := m.PackageDirs()
	if err != nil {
		return nil, err
	}

	// Parse every package's files concurrently. token.FileSet is safe
	// for concurrent AddFile.
	type parsed struct {
		path, dir string
		files     []*ast.File
		imports   []string
		err       error
	}
	parsedPkgs := make([]parsed, len(paths))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for i, path := range paths {
		wg.Add(1)
		go func(i int, path string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			p := parsed{path: path}
			dir, ok := m.dirOf(path)
			if !ok {
				p.err = fmt.Errorf("%s is not inside module %s", path, m.Path)
				parsedPkgs[i] = p
				return
			}
			p.dir = dir
			for _, name := range nonTestGoFiles(dir) {
				f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
				if err != nil {
					p.err = err
					break
				}
				p.files = append(p.files, f)
				for _, imp := range f.Imports {
					p.imports = append(p.imports, strings.Trim(imp.Path.Value, `"`))
				}
			}
			parsedPkgs[i] = p
		}(i, path)
	}
	wg.Wait()
	for _, p := range parsedPkgs {
		if p.err != nil {
			return nil, fmt.Errorf("%s: %w", p.path, p.err)
		}
	}

	// Type-check in dependency waves. deps counts unresolved
	// module-internal imports; a package is ready at zero.
	inModule := map[string]int{}
	for i, p := range parsedPkgs {
		inModule[p.path] = i
	}
	deps := make([]map[string]bool, len(parsedPkgs))
	dependents := map[string][]int{}
	ready := make(chan int, len(parsedPkgs))
	scheduled := 0
	for i, p := range parsedPkgs {
		deps[i] = map[string]bool{}
		for _, imp := range p.imports {
			if _, ok := inModule[imp]; ok && imp != p.path {
				deps[i][imp] = true
			}
		}
		for imp := range deps[i] {
			dependents[imp] = append(dependents[imp], i)
		}
		if len(deps[i]) == 0 {
			ready <- i
			scheduled++
		}
	}

	var (
		errMu    sync.Mutex
		firstErr error
		doneCh   = make(chan string, len(parsedPkgs))
	)
	workers := runtime.NumCPU()
	if workers > len(parsedPkgs) {
		workers = len(parsedPkgs)
	}
	var checkWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		checkWG.Add(1)
		go func() {
			defer checkWG.Done()
			for i := range ready {
				p := parsedPkgs[i]
				pkg, err := m.checkParsed(p.path, p.dir, p.files)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("%s: %w", p.path, err)
					}
					errMu.Unlock()
				}
				if pkg != nil {
					m.mu.Lock()
					m.pkgs[p.path] = pkg
					m.mu.Unlock()
				}
				doneCh <- p.path
			}
		}()
	}
	// Drain completions, releasing dependents as their last module import
	// lands. When done catches up with scheduled and nothing new became
	// ready, the remainder is an import cycle — left for the serial
	// fallback below to diagnose.
	for done := 0; done < scheduled; done++ {
		path := <-doneCh
		for _, di := range dependents[path] {
			delete(deps[di], path)
			if len(deps[di]) == 0 {
				ready <- di
				scheduled++
			}
		}
	}
	close(ready)
	checkWG.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	pkgs := make([]*Package, 0, len(paths))
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, path := range paths {
		pkg, ok := m.pkgs[path]
		if !ok {
			// A dependency cycle (or an unready import) left this package
			// unchecked; the serial loader reports the cycle precisely.
			m.mu.Unlock()
			p, err := m.Load(path)
			m.mu.Lock()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			pkg = p
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// Load loads (or returns the cached) package at an import path inside
// the module, type-checking its module-internal imports first (serially).
func (m *Module) Load(path string) (*Package, error) {
	m.mu.Lock()
	if pkg, ok := m.pkgs[path]; ok {
		m.mu.Unlock()
		return pkg, nil
	}
	if m.loading[path] {
		m.mu.Unlock()
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	m.loading[path] = true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.loading, path)
		m.mu.Unlock()
	}()

	dir, ok := m.dirOf(path)
	if !ok {
		return nil, fmt.Errorf("%s is not inside module %s", path, m.Path)
	}
	pkg, err := m.check(path, dir, nonTestGoFiles(dir))
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.pkgs[path] = pkg
	m.mu.Unlock()
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
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return m.checkParsed(path, dir, files)
}

// checkParsed type-checks one package from already-parsed files.
func (m *Module) checkParsed(path, dir string, files []*ast.File) (*Package, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  m.Fset,
		Files: files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
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
	mi.mod.stdMu.Lock()
	defer mi.mod.stdMu.Unlock()
	return mi.mod.std.ImportFrom(path, srcDir, mode)
}
