package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// MetricsParity cross-checks the two places a metric lives — the
// registered homesight_* family and the OBSERVABILITY.md catalog row
// documenting it — and fails on any drift between them. The exported
// series are how a deployment proves the collection pipeline did not
// silently change; an unregistered or undocumented counter is exactly
// the "activity indicators drifted under the analysis" failure mode the
// paper's conclusions cannot survive.
//
// Two invariants:
//
//   - Every family registered in code (a string literal passed to an
//     obs.Registry Counter/Gauge/Histogram/CounterVec/HistogramVec call)
//     has a catalog row in OBSERVABILITY.md (a table line starting
//     "| `homesight_...`").
//   - Every catalog row names a family registered somewhere in code
//     (stale rows fail — the doc is a contract, not a wishlist).
//
// The per-file pass additionally requires registry family names to be
// string literals — a computed name cannot be parity-checked (or
// grepped by an operator) and is flagged at the call site.
var MetricsParity = &Analyzer{
	Name:   "metrics-parity",
	Doc:    "every registered homesight_* family needs an OBSERVABILITY.md catalog row and vice versa",
	Facts:  factsMetricsParity,
	Run:    runMetricsParity,
	Finish: finishMetricsParity,
}

// registryMethods are the obs.Registry constructors whose first argument
// is a metric family name.
var registryMethods = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"CounterVec": true, "HistogramVec": true,
}

const obsPkgPath = "homesight/internal/obs"

// famReg is one family registration site.
type famReg struct {
	Name string
	Pos  token.Pos
}

// parityFact is the per-package metrics inventory.
type parityFact struct {
	Families []famReg
}

// registryFamilyArg returns the family-name argument of an obs.Registry
// constructor call, or nil.
func registryFamilyArg(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !registryMethods[sel.Sel.Name] || len(call.Args) == 0 {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != obsPkgPath || obj.Name() != "Registry" {
		return nil
	}
	return call.Args[0]
}

func factsMetricsParity(fp *FactPass) {
	var fact parityFact
	for _, file := range fp.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			arg := registryFamilyArg(fp.Pkg.Info, call)
			if arg == nil {
				return true
			}
			if lit, ok := ast.Unparen(arg).(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					fact.Families = append(fact.Families, famReg{Name: name, Pos: lit.Pos()})
				}
			}
			return true
		})
	}
	if len(fact.Families) > 0 {
		fp.ExportPackageFact(fact)
	}
}

// runMetricsParity flags computed (non-literal) family names: they break
// the parity check and operator grep alike.
func runMetricsParity(pass *Pass) {
	ast.Inspect(pass.File, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		arg := registryFamilyArg(pass.Info, call)
		if arg == nil {
			return true
		}
		if lit, ok := ast.Unparen(arg).(*ast.BasicLit); !ok || lit.Kind != token.STRING {
			pass.Reportf(arg.Pos(),
				"metric family name must be a string literal so the catalog parity check (and operators) can find it")
		}
		return true
	})
}

// catalogRowRe matches one catalog table row: | `homesight_x` | ...
var catalogRowRe = regexp.MustCompile("^\\s*\\|\\s*`(homesight_[a-z0-9_]+)`")

func finishMetricsParity(mp *ModulePass) {
	data, err := os.ReadFile(mp.Catalog)
	if err != nil {
		// A module with no registered families has nothing to document;
		// only complain when there is drift to find.
		for _, pkg := range mp.Pkgs {
			if _, ok := mp.PackageFact(pkg.Path); ok {
				mp.ReportDocf(mp.Catalog, 1, "metrics catalog unreadable: %v", err)
				return
			}
		}
		return
	}
	lines := strings.Split(string(data), "\n")
	docFamilies := map[string]int{} // family → first catalog row line
	for i, line := range lines {
		if m := catalogRowRe.FindStringSubmatch(line); m != nil {
			if _, ok := docFamilies[m[1]]; !ok {
				docFamilies[m[1]] = i + 1
			}
		}
	}
	registered := map[string]bool{}
	for _, pkg := range mp.Pkgs {
		f, ok := mp.PackageFact(pkg.Path)
		if !ok {
			continue
		}
		fact := f.(parityFact)
		for _, fam := range fact.Families {
			registered[fam.Name] = true
		}
	}
	for _, pkg := range mp.Pkgs {
		f, ok := mp.PackageFact(pkg.Path)
		if !ok {
			continue
		}
		fact := f.(parityFact)
		seen := map[string]bool{}
		for _, fam := range fact.Families {
			if seen[fam.Name] {
				continue
			}
			seen[fam.Name] = true
			if _, ok := docFamilies[fam.Name]; !ok {
				mp.Reportf(fam.Pos,
					"metric family %s is registered but has no catalog row in %s; document it (| `%s` | ... |)",
					fam.Name, relBase(mp.Catalog), fam.Name)
			}
		}
	}
	// Stale catalog rows: documented families nothing registers.
	for _, fam := range sortedKeys(docFamilies) {
		if !registered[fam] {
			mp.ReportDocf(mp.Catalog, docFamilies[fam],
				"catalog row documents %s but no code registers it; delete the row or restore the metric", fam)
		}
	}
}

func relBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
