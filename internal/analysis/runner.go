package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// FactStore holds the cross-package facts exported during the facts
// phase, keyed by (analyzer, object) and (analyzer, package path). It is
// written single-threaded in dependency order and read concurrently by
// the run phase.
type FactStore struct {
	obj map[string]map[types.Object]any
	pkg map[string]map[string]any
}

func newFactStore() *FactStore {
	return &FactStore{
		obj: map[string]map[types.Object]any{},
		pkg: map[string]map[string]any{},
	}
}

func (s *FactStore) exportObject(rule string, obj types.Object, fact any) {
	m := s.obj[rule]
	if m == nil {
		m = map[types.Object]any{}
		s.obj[rule] = m
	}
	m[obj] = fact
}

func (s *FactStore) objectFact(rule string, obj types.Object) (any, bool) {
	fact, ok := s.obj[rule][obj]
	return fact, ok
}

func (s *FactStore) exportPackage(rule, path string, fact any) {
	m := s.pkg[rule]
	if m == nil {
		m = map[string]any{}
		s.pkg[rule] = m
	}
	m[path] = fact
}

func (s *FactStore) packageFact(rule, path string) (any, bool) {
	fact, ok := s.pkg[rule][path]
	return fact, ok
}

// FactPass is the facts-phase view of one package. Packages are visited
// in dependency order, so facts exported by imported packages are
// already available through ImportObjectFact.
type FactPass struct {
	Pkg   *Package
	rule  string
	store *FactStore
}

// ExportObjectFact records a fact about obj, visible to later packages
// and to the run phase of the same analyzer.
func (fp *FactPass) ExportObjectFact(obj types.Object, fact any) {
	fp.store.exportObject(fp.rule, obj, fact)
}

// ImportObjectFact returns the fact exported for obj by this analyzer,
// in this or any already-visited package.
func (fp *FactPass) ImportObjectFact(obj types.Object) (any, bool) {
	return fp.store.objectFact(fp.rule, obj)
}

// ExportPackageFact records a fact about the package being visited.
func (fp *FactPass) ExportPackageFact(fact any) {
	fp.store.exportPackage(fp.rule, fp.Pkg.Path, fact)
}

// ModulePass is the finish-phase view of the whole analyzed module.
type ModulePass struct {
	// Pkgs are the loaded packages, in import-path order.
	Pkgs []*Package
	// Fset is the module's shared file set.
	Fset *token.FileSet
	// Catalog is the path of the observability catalog document
	// (OBSERVABILITY.md) used by metrics-parity.
	Catalog string

	rule     string
	store    *FactStore
	findings *[]Finding
	ignores  map[*ast.File]ignoreSet
}

// PackageFact returns the fact this analyzer exported for the package at
// the given import path.
func (mp *ModulePass) PackageFact(path string) (any, bool) {
	return mp.store.packageFact(mp.rule, path)
}

// Reportf records a module-level finding at a position inside a loaded
// Go file; ignore directives covering the line suppress it.
func (mp *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	position := mp.Fset.Position(pos)
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			if f.FileStart <= pos && pos < f.FileEnd {
				if mp.ignores[f].covers(mp.rule, position.Line) {
					return
				}
			}
		}
	}
	*mp.findings = append(*mp.findings, Finding{
		Pos:     position,
		Rule:    mp.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// ReportDocf records a finding against a non-Go artifact (e.g. a line of
// OBSERVABILITY.md). Such findings cannot carry ignore directives: the
// fix is to the document.
func (mp *ModulePass) ReportDocf(filename string, line int, format string, args ...any) {
	*mp.findings = append(*mp.findings, Finding{
		Pos:     token.Position{Filename: filename, Line: line},
		Rule:    mp.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// RunOptions configures a module-wide analysis run.
type RunOptions struct {
	// Catalog is the observability catalog path; empty means
	// <module root>/OBSERVABILITY.md.
	Catalog string
	// Packages, when non-empty, restricts the per-file run (and the
	// findings reported from it) to these import paths. Facts and Finish
	// always see every loaded package.
	Packages []string
}

// Run executes the three analysis phases (facts in dependency order,
// per-file runs in parallel, module-level finish) over the loaded
// packages and returns position-sorted findings.
func Run(m *Module, pkgs []*Package, analyzers []*Analyzer, opts RunOptions) ([]Finding, error) {
	var findings []Finding
	catalog := opts.Catalog
	if catalog == "" {
		catalog = m.Root + "/OBSERVABILITY.md"
	}
	store := newFactStore()

	// Phase 1: facts, packages in dependency order (imports first).
	ordered, err := dependencyOrder(pkgs)
	if err != nil {
		return nil, err
	}
	for _, pkg := range ordered {
		for _, a := range analyzers {
			if a.Facts != nil {
				a.Facts(&FactPass{Pkg: pkg, rule: a.Name, store: store})
			}
		}
	}

	// Phase 2: per-file runs, packages analyzed in parallel.
	selected := pkgs
	if len(opts.Packages) > 0 {
		want := map[string]bool{}
		for _, p := range opts.Packages {
			want[p] = true
		}
		selected = nil
		for _, pkg := range pkgs {
			if want[pkg.Path] {
				selected = append(selected, pkg)
			}
		}
	}
	ignores := map[*ast.File]ignoreSet{}
	var mu sync.Mutex
	perPkg := make([][]Finding, len(selected))
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i, pkg := range selected {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var own []Finding
			for _, f := range pkg.Files {
				ig := collectIgnores(pkg.Fset, f)
				mu.Lock()
				ignores[f] = ig
				mu.Unlock()
				for _, a := range analyzers {
					if a.Run == nil {
						continue
					}
					a.Run(&Pass{
						Fset:     pkg.Fset,
						File:     f,
						Pkg:      pkg.Types,
						Info:     pkg.Info,
						Path:     pkg.Path,
						findings: &own,
						rule:     a.Name,
						ignores:  ig,
						facts:    store,
					})
				}
			}
			perPkg[i] = own
		}(i, pkg)
	}
	wg.Wait()
	for _, fs := range perPkg {
		findings = append(findings, fs...)
	}
	// Ignore sets for files outside the selection still matter to Finish
	// (module-level findings may land anywhere).
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if _, ok := ignores[f]; !ok {
				ignores[f] = collectIgnores(pkg.Fset, f)
			}
		}
	}

	// Phase 3: module-level finish.
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		a.Finish(&ModulePass{
			Pkgs:     pkgs,
			Fset:     m.Fset,
			Catalog:  catalog,
			rule:     a.Name,
			store:    store,
			findings: &findings,
			ignores:  ignores,
		})
	}

	sortFindings(findings)
	return findings, nil
}

// dependencyOrder sorts pkgs so that every package follows the packages
// it imports (restricted to the given set). Cycles are an error.
func dependencyOrder(pkgs []*Package) ([]*Package, error) {
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	var order []*Package
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p.Path] {
		case 1:
			return fmt.Errorf("import cycle through %s", p.Path)
		case 2:
			return nil
		}
		state[p.Path] = 1
		for _, imp := range moduleImports(p) {
			if dep, ok := byPath[imp]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[p.Path] = 2
		order = append(order, p)
		return nil
	}
	sorted := make([]*Package, len(pkgs))
	copy(sorted, pkgs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	for _, p := range sorted {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImports lists the import paths of p's files, deduplicated.
func moduleImports(p *Package) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if !seen[path] {
				seen[path] = true
				out = append(out, path)
			}
		}
	}
	sort.Strings(out)
	return out
}
