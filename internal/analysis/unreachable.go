package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Unreachable reports production code that no program runs: package-level
// funcs, methods, types, consts and vars that no main, no init and no
// package-level var initialiser reaches, and packages that no program
// imports. Code that only tests reach belongs in a _test.go file or is
// gone; ANALYSIS.md lists the reasons a finding may be kept with a
// //homesight:ignore unreachable directive, which makes the kept
// declaration (a kept type with its methods) a root.
//
// Reachability follows Info.Uses and Info.Selections out of each reached
// declaration, mapping generic instantiations to their origin. Dynamic
// dispatch is approximated by name: a method of a reached type is reached
// when reached code selects it, or when any interface type of the module
// or of the stdlib it imports has a method of that name (String,
// ServeHTTP, Len, ...). A module without a main package is a library
// whose API is its own root; the rule reports nothing there.
var Unreachable = &Analyzer{
	Name: "unreachable",
	Doc: "every package-level func, method, type, const and var must be reached " +
		"from a main, an init or a package var initialiser; code only tests reach " +
		"moves into a _test.go file",
	Finish: finishUnreachable,
}

// declSite is one package-level declaration: a FuncDecl, a TypeSpec or a
// ValueSpec, with the type info of its package. root marks an init, a
// main of package main and a var with an initialiser.
type declSite struct {
	node ast.Node
	name *ast.Ident
	info *types.Info
	root bool
}

func finishUnreachable(mp *ModulePass) {
	byPath := map[string]*Package{}
	for _, pkg := range mp.Pkgs {
		byPath[pkg.Path] = pkg
	}
	// A package is live when a program imports it, directly or not, or
	// when a directive on its package clause keeps it.
	live := map[string]bool{}
	var visit func(path string)
	visit = func(path string) {
		if pkg, ok := byPath[path]; ok && !live[path] {
			live[path] = true
			for _, f := range pkg.Files {
				for _, imp := range f.Imports {
					visit(strings.Trim(imp.Path.Value, `"`))
				}
			}
		}
	}
	for _, pkg := range mp.Pkgs {
		if pkg.Types.Name() == "main" {
			visit(pkg.Path)
		}
	}
	if len(live) == 0 {
		return
	}
	kept := func(f *ast.File, pos token.Pos) bool {
		return mp.ignores[f].covers(mp.rule, mp.Fset.Position(pos).Line)
	}
	keptPkg := map[string]bool{}
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			if !live[pkg.Path] && kept(f, f.Package) {
				keptPkg[pkg.Path] = true
				visit(pkg.Path)
			}
		}
	}
	for _, pkg := range mp.Pkgs {
		if !live[pkg.Path] {
			mp.Reportf(pkg.Files[0].Package,
				"package %s is imported by no program; delete it, or keep it with a reason", pkg.Path)
		}
	}

	decls := map[types.Object]declSite{}
	var roots []declSite
	var keptTypes []*types.Named
	for _, pkg := range mp.Pkgs {
		if !live[pkg.Path] {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				for _, site := range declSites(decl, pkg.Info, pkg.Types.Name() == "main") {
					obj := pkg.Info.Defs[site.name]
					if obj != nil && site.name.Name != "_" {
						decls[obj] = site
					}
					isKept := keptPkg[pkg.Path] || kept(f, site.name.Pos())
					if isKept || site.root {
						roots = append(roots, site)
					}
					if tn, ok := obj.(*types.TypeName); ok && isKept {
						if t, ok := tn.Type().(*types.Named); ok {
							keptTypes = append(keptTypes, t)
						}
					}
				}
			}
		}
	}

	methods := interfaceMethodNames(mp.Pkgs)
	reached := map[types.Object]bool{}
	var queue []types.Object
	mark := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if _, ok := decls[obj]; ok && !reached[obj] {
			reached[obj] = true
			queue = append(queue, obj)
		}
	}
	walk := func(site declSite) {
		ast.Inspect(site.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := site.info.Uses[n]; obj != nil {
					mark(obj)
				}
			case *ast.SelectorExpr:
				if sel := site.info.Selections[n]; sel != nil {
					mark(sel.Obj())
				}
			}
			return true
		})
	}
	for _, site := range roots {
		if obj := site.info.Defs[site.name]; obj != nil {
			mark(obj)
		}
		walk(site)
	}
	for _, t := range keptTypes {
		for i := 0; i < t.NumMethods(); i++ {
			mark(t.Method(i))
		}
	}
	// A reached type reaches its methods that some interface names; a
	// reached method reaches its receiver type.
	for len(queue) > 0 {
		obj := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		walk(decls[obj])
		switch o := obj.(type) {
		case *types.TypeName:
			if t, ok := o.Type().(*types.Named); ok {
				for i := 0; i < t.NumMethods(); i++ {
					if m := t.Method(i); methods[m.Name()] {
						mark(m)
					}
				}
			}
		case *types.Func:
			if recv := receiverName(o); recv != nil {
				mark(recv)
			}
		}
	}

	var dead []types.Object
	for obj := range decls {
		if !reached[obj] {
			dead = append(dead, obj)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].Pos() < dead[j].Pos() })
	for _, obj := range dead {
		kind, name := "var", obj.Name()
		switch o := obj.(type) {
		case *types.Func:
			kind = "func"
			if recv := receiverName(o); recv != nil {
				if !reached[recv] {
					continue // reported once, with its type
				}
				kind, name = "method", recv.Name()+"."+name
			}
		case *types.TypeName:
			kind = "type"
		case *types.Const:
			kind = "const"
		}
		mp.Reportf(decls[obj].name.Pos(),
			"%s %s is reached from no main, init or package var initialiser; delete it, or move it into a _test.go file", kind, name)
	}
}

// declSites splits one top-level declaration into its named sites.
func declSites(decl ast.Decl, info *types.Info, isMain bool) []declSite {
	var out []declSite
	switch d := decl.(type) {
	case *ast.FuncDecl:
		entry := d.Recv == nil && (d.Name.Name == "init" || isMain && d.Name.Name == "main")
		out = append(out, declSite{node: d, name: d.Name, info: info, root: entry})
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				out = append(out, declSite{node: s, name: s.Name, info: info})
			case *ast.ValueSpec:
				for _, name := range s.Names {
					out = append(out, declSite{node: s, name: name, info: info,
						root: d.Tok == token.VAR && len(s.Values) > 0})
				}
			}
		}
	}
	return out
}

// receiverName returns the type name a method is declared on, or nil for
// a plain func.
func receiverName(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// interfaceMethodNames collects the method names of every interface type
// a dynamic call could go through: the named interfaces of the module
// and of every package it imports, the stdlib included, and the interface
// literals written in the module's own files.
func interfaceMethodNames(pkgs []*Package) map[string]bool {
	names := map[string]bool{"Error": true}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var scan func(p *types.Package)
	scan = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			scan(imp)
		}
	}
	for _, pkg := range pkgs {
		scan(pkg.Types)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if t := pkg.Info.TypeOf(it); t != nil {
						add(t)
					}
				}
				return true
			})
		}
	}
	return names
}
