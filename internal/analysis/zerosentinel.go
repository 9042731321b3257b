package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// ZeroSentinel flags `x.Field == 0` where Field is a floating-point
// struct field: the pattern behind "zero value selects a default"
// configuration. For float parameters zero is usually a legitimate
// domain value (a threshold of 0, a disabled cutoff), so overloading it
// as the unset sentinel makes that value inexpressible: a caller asking
// for a threshold of 0 silently gets the default instead. The fix is a
// pointer field (nil selects the default), a named non-zero sentinel, or
// a documented //homesight:ignore zero-sentinel stating why zero can
// never be meant literally, as at motif.Miner.phi (a φ of 0 would admit
// every pair).
//
// Integer fields are exempt: for counts and sizes, zero genuinely means
// "unset" (a zero-sized queue or zero dial attempts is never a real
// configuration), and flagging them would bury the float findings in
// noise.
var ZeroSentinel = &Analyzer{
	Name: "zero-sentinel",
	Doc: "comparing a float struct field against 0 to substitute a default " +
		"makes a literal 0 inexpressible; use a pointer field, or document " +
		"why 0 is never meant with //homesight:ignore zero-sentinel",
	Run: runZeroSentinel,
}

func runZeroSentinel(pass *Pass) {
	ast.Inspect(pass.File, func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || bin.Op != token.EQL {
			return true
		}
		var sel *ast.SelectorExpr
		switch {
		case isFloatFieldSel(pass, bin.X) && isZeroLiteral(pass, bin.Y):
			sel = bin.X.(*ast.SelectorExpr)
		case isFloatFieldSel(pass, bin.Y) && isZeroLiteral(pass, bin.X):
			sel = bin.Y.(*ast.SelectorExpr)
		default:
			return true
		}
		pass.Reportf(bin.OpPos,
			"zero-value sentinel on float field %s: a caller cannot express 0 itself; "+
				"use a pointer field, or document why 0 is never meant with //homesight:ignore zero-sentinel",
			sel.Sel.Name)
		return true
	})
}

// isFloatFieldSel reports whether e selects a floating-point struct
// field (not a method value, package identifier or local variable).
func isFloatFieldSel(pass *Pass, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := pass.Info.Selections[sel]
	if !ok || obj.Kind() != types.FieldVal {
		return false
	}
	return isFloat(obj.Type())
}

// isZeroLiteral reports whether e is the constant 0 (untyped or typed).
func isZeroLiteral(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	f, _ := constant.Float64Val(constant.ToFloat(tv.Value))
	return f == 0
}
