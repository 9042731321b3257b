package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// FactStore holds the cross-package facts exported during the facts
// phase, keyed by (analyzer, object) and (analyzer, package path). The
// facts phase writes it in dependency order; the run and finish phases
// read it.
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
	// Pkgs are the loaded packages, in the dependency order Run was given.
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

// Run executes the three analysis phases over the loaded packages —
// facts, per-file runs, module-level finish — and returns
// position-sorted findings. pkgs must be in dependency order, each
// package after the module packages it imports, as LoadAll returns them:
// the facts phase visits them in the order given, so a package sees the
// facts of its imports.
func Run(m *Module, pkgs []*Package, analyzers []*Analyzer, opts RunOptions) []Finding {
	catalog := opts.Catalog
	if catalog == "" {
		catalog = m.Root + "/OBSERVABILITY.md"
	}
	store := newFactStore()

	// Phase 1: facts, imports first.
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Facts != nil {
				a.Facts(&FactPass{Pkg: pkg, rule: a.Name, store: store})
			}
		}
	}

	// Phase 2: per-file runs over the selected packages. Ignore sets are
	// collected for every file: module-level findings may land anywhere.
	ignores := map[*ast.File]ignoreSet{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ignores[f] = collectIgnores(pkg.Fset, f)
		}
	}
	selected := map[string]bool{}
	for _, p := range opts.Packages {
		selected[p] = true
	}
	var findings []Finding
	for _, pkg := range pkgs {
		if len(selected) > 0 && !selected[pkg.Path] {
			continue
		}
		for _, f := range pkg.Files {
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
					findings: &findings,
					rule:     a.Name,
					ignores:  ignores[f],
					facts:    store,
				})
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
	return findings
}
