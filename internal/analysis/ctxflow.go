package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces context propagation: cancellation only works if the
// ctx a caller was handed actually reaches the blocking work. Two ways
// to break the chain are flagged:
//
//   - A function that accepts a context.Context parameter but passes
//     context.Background() or context.TODO() to a ctx-accepting callee —
//     the accepted ctx is silently dropped, and cancelling the caller
//     leaves the callee running.
//   - An unexported function with no ctx parameter that conjures
//     context.Background()/TODO() for a ctx-accepting callee: internal
//     plumbing must thread ctx from above. Exported functions and main
//     stay free — a no-ctx convenience wrapper (Reporter.Send) is a
//     legitimate public API boundary.
//
// A ctx parameter that is simply unused is not flagged (interface
// implementations legitimately ignore it); the rule fires only where a
// fresh root context is minted while a better one was available or
// should have been threaded. Intentional breaks (a cache fill that must
// outlive its first caller, say) carry //homesight:ignore ctx-flow with
// a rationale.
var CtxFlow = &Analyzer{
	Name: "ctx-flow",
	Doc: "context.Background()/TODO() passed to a ctx-accepting callee where a " +
		"ctx parameter exists (or should be threaded); pass the ctx through",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	if pass.File.Name.Name == "main" {
		// Package main is the process edge: subcommand dispatch minting
		// context.Background() is where the root context is supposed to
		// be born.
		return
	}
	for _, decl := range pass.File.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		checkCtxScope(pass, fd.Type, fd.Body, ctxParamName(pass, fd.Type), exportedOrMain(fd))
	}
}

// exportedOrMain reports whether fd is an entry-point-shaped function
// where minting a root context is conventional.
func exportedOrMain(fd *ast.FuncDecl) bool {
	return fd.Name.IsExported() || fd.Name.Name == "main" || fd.Name.Name == "init"
}

// ctxParamName returns the name of ft's context.Context parameter, or ""
// when there is none (or it is blank).
func ctxParamName(pass *Pass, ft *ast.FuncType) string {
	if ft.Params == nil {
		return ""
	}
	for _, field := range ft.Params.List {
		if !isContext(pass.TypeOf(field.Type)) {
			continue
		}
		for _, name := range field.Names {
			if name.Name != "_" {
				return name.Name
			}
		}
	}
	return ""
}

// checkCtxScope walks one function scope. Nested function literals open
// their own scope: one with its own ctx parameter is checked against
// that parameter; one without inherits the enclosing scope's (a closure
// capturing ctx is the same chain).
func checkCtxScope(pass *Pass, ft *ast.FuncType, body *ast.BlockStmt, ctxName string, entryShaped bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n == nil {
				return true
			}
			inner := ctxParamName(pass, n.Type)
			if inner != "" {
				checkCtxScope(pass, n.Type, n.Body, inner, false)
				return false
			}
			// Literals without a ctx param inherit the enclosing scope;
			// keep walking with the outer ctxName.
			return true
		case *ast.CallExpr:
			checkCtxCall(pass, n, ctxName, entryShaped)
		}
		return true
	})
}

// checkCtxCall flags a ctx-accepting call whose context argument is a
// freshly minted Background()/TODO().
func checkCtxCall(pass *Pass, call *ast.CallExpr, ctxName string, entryShaped bool) {
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	argIdx := -1
	for i := 0; i < sig.Params().Len(); i++ {
		if isContext(sig.Params().At(i).Type()) {
			argIdx = i
			break
		}
	}
	if argIdx < 0 || argIdx >= len(call.Args) {
		return
	}
	arg := call.Args[argIdx]
	mint := mintedContext(pass, arg)
	if mint == "" {
		return
	}
	callee := calleeName(call)
	switch {
	case ctxName != "":
		pass.Reportf(arg.Pos(),
			"ctx parameter %s is dropped: %s receives context.%s(); pass %s through so cancellation reaches the callee",
			ctxName, callee, mint, ctxName)
	case !entryShaped:
		pass.Reportf(arg.Pos(),
			"%s receives a fresh context.%s() mid-stack; thread a ctx parameter from the caller (or annotate //homesight:ignore ctx-flow with why this work must outlive its caller)",
			callee, mint)
	}
}

// mintedContext reports whether e is a direct context.Background() or
// context.TODO() call, returning the function name ("" otherwise).
func mintedContext(pass *Pass, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := calledFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name()
	}
	return ""
}
