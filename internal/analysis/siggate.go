package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// corrPath is the raw-coefficient package the gate protects.
const corrPath = "homesight/internal/stats/corr"

// sigGateAllowed are the packages that may call the raw coefficients:
// corrsim implements the gate itself, and the stats tree is the numerical
// layer beneath it. (Test files are never analyzed — the driver only loads
// non-test sources.)
var sigGateAllowed = []string{
	"homesight/internal/corrsim",
	"homesight/internal/stats",
}

// SigGate enforces the paper's Definition 1: cor(X, Y) is zero unless the
// coefficient is statistically significant (p < α). Calling
// corr.{Pearson,Spearman,Kendall,SpearmanKendall,Complete} (and the
// Ranked.Complete method) directly bypasses the
// gate, so every use outside the allowlist must go through corrsim (Cor,
// Measure.Similarity or Measure.Detailed) — or carry an explicit
// //homesight:rawcorr opt-out where the raw coefficient is deliberately
// reported.
var SigGate = &Analyzer{
	Name: "sig-gate",
	Doc: "direct corr.{Pearson,Spearman,Kendall,SpearmanKendall,Complete} calls bypass the Definition 1 " +
		"significance gate; route them through corrsim or annotate //homesight:rawcorr",
	Run: runSigGate,
}

func runSigGate(pass *Pass) {
	for _, prefix := range sigGateAllowed {
		if pass.Path == prefix || strings.HasPrefix(pass.Path, prefix+"/") {
			return
		}
	}
	ast.Inspect(pass.File, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != corrPath {
			return true
		}
		switch fn.Name() {
		case "Pearson", "Spearman", "Kendall", "SpearmanKendall", "Complete":
			pass.Reportf(call.Pos(),
				"raw corr.%s bypasses the Definition 1 significance gate; use corrsim.Cor / corrsim.Measure, or annotate //homesight:rawcorr if the ungated coefficient is the point",
				fn.Name())
		}
		return true
	})
}
