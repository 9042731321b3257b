package analysis

import (
	"go/ast"
	"go/types"
)

// PrintfLog flags stdlib log.Print/Printf/Println calls in production
// code: homesight's operational events must go through obs/slogx, whose
// log/slog text handler makes every line leveled key=value with the same
// field names as the metric counting the same event (OBSERVABILITY.md
// documents the vocabulary). Prose-formatted log.Printf lines cannot be
// grepped by field and silently diverge from the exported counters.
//
// log.Fatal/Fatalf/Panic and the log.Logger type are exempt — the rule
// targets the event stream, not process-exit helpers — and test files
// are never analyzed (the loader skips them), so tests may keep any
// logging they like. An intentional stdlib call (say, feeding a
// third-party API that demands a *log.Logger writer) can carry
// //homesight:ignore printf-log with a rationale.
var PrintfLog = &Analyzer{
	Name: "printf-log",
	Doc: "production code must log through obs/slogx (log/slog key=value lines), " +
		"not stdlib log.Print/Printf/Println",
	Run: runPrintfLog,
}

func runPrintfLog(pass *Pass) {
	ast.Inspect(pass.File, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Print", "Printf", "Println":
		default:
			return true
		}
		fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "log" {
			return true
		}
		// Package-level log.Printf only: a method on a *log.Logger value
		// has a receiver and is someone else's configured logger.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return true
		}
		pass.Reportf(call.Pos(),
			"log.%s in production code: use obs/slogx for log/slog key=value events "+
				"(logger.Info(msg, k, v, ...) on a *slogx.Logger)", sel.Sel.Name)
		return true
	})
}
