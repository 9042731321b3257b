package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"strings"
)

// The paper's magic thresholds (Defs. 1–5 and Sec. 6.1). Named here so the
// rule's own table passes the rule.
const (
	alphaVal     = 0.05 // Definition 1 significance level α
	phiVal       = 0.6  // Definition 4 dominance φ / stationarity bound
	groupFracVal = 0.75 // Definition 5 group-similarity fraction ¾
	strictPhiVal = 0.8  // Definition 5 motif φ / strict dominance
	capBytesVal  = 5000 // Sec. 6.1 background cap, bytes/min
)

// bareAlphaNames maps each magic value to the named constant that owns it.
var bareAlphaNames = map[float64]string{
	alphaVal:     "corrsim.DefaultAlpha",
	phiVal:       "dominance.DefaultPhi / stationarity.DefaultCorrThreshold / motif.DefaultMergeThreshold",
	groupFracVal: "motif.DefaultGroupFraction",
	strictPhiVal: "motif.DefaultPhi / dominance.StrictPhi",
	capBytesVal:  "background.CapBytes",
}

// bareAlphaAllowed are packages where the bare values may appear outside
// const declarations: the stats tree's significance tables legitimately
// enumerate α levels, and synth's traffic-generator distribution tables
// use weights and sigmas that coincide with the thresholds numerically but
// not semantically.
var bareAlphaAllowed = []string{
	"homesight/internal/stats",
	"homesight/internal/synth",
}

// BareAlpha flags the paper's magic numbers — α = 0.05, φ = 0.6/0.8, the ¾
// group fraction and the 5000 B/min background cap — appearing as bare
// literals in executable code. Naming the threshold is the fix: reference
// the constant of the package that owns the mechanism, or introduce a
// local named constant when the value is a coincidence with different
// semantics.
var BareAlpha = &Analyzer{
	Name: "bare-alpha",
	Doc: "paper thresholds (0.05, 0.6, 0.75, 0.8, 5000) must reference named " +
		"constants (corrsim.DefaultAlpha, dominance.DefaultPhi, ...), not bare literals",
	Run: runBareAlpha,
}

func runBareAlpha(pass *Pass) {
	for _, prefix := range bareAlphaAllowed {
		if pass.Path == prefix || strings.HasPrefix(pass.Path, prefix+"/") {
			return
		}
	}
	constRanges := constDeclRanges(pass.File)
	ast.Inspect(pass.File, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || (lit.Kind != token.FLOAT && lit.Kind != token.INT) {
			return true
		}
		tv, ok := pass.Info.Types[lit]
		if !ok || tv.Value == nil {
			return true
		}
		// Float64Val's exactness flag is irrelevant here: the decimal
		// literal and the table key round to the same float64.
		f, _ := constant.Float64Val(constant.ToFloat(tv.Value))
		name, magic := bareAlphaNames[f]
		if !magic || inRanges(constRanges, lit.Pos()) {
			return true
		}
		pass.Reportf(lit.Pos(),
			"magic threshold %s must reference a named constant — %s — or a local const naming its meaning here", lit.Value, name)
		return true
	})
}

type posRange struct{ lo, hi token.Pos }

// constDeclRanges collects the source ranges of every const declaration
// (top-level or local): a literal inside one *is* being named.
func constDeclRanges(file *ast.File) []posRange {
	var out []posRange
	ast.Inspect(file, func(n ast.Node) bool {
		if decl, ok := n.(*ast.GenDecl); ok && decl.Tok == token.CONST {
			out = append(out, posRange{decl.Pos(), decl.End()})
		}
		return true
	})
	return out
}

func inRanges(ranges []posRange, pos token.Pos) bool {
	for _, r := range ranges {
		if pos >= r.lo && pos < r.hi {
			return true
		}
	}
	return false
}
