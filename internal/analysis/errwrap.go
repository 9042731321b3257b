package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// ErrWrap flags fmt.Errorf calls that format an error value with %v or
// %s instead of wrapping it with %w. Formatting flattens the error to a
// string: errors.Is/As stop working across the boundary, so callers
// cannot distinguish a WAL corruption from a full disk, and the
// telemetry retry loop cannot match sentinel errors through the wrapper.
//
// Only plain %v/%s verbs (no flags or width) bound to an error-typed
// argument are flagged; %+v and friends are left alone — a verb with
// flags usually means the caller wanted the formatted representation.
var ErrWrap = &Analyzer{
	Name: "errwrap",
	Doc: "fmt.Errorf formats an error with %v/%s, severing the errors.Is/As chain; " +
		"wrap with %w instead",
	Run: runErrWrap,
}

func runErrWrap(pass *Pass) {
	ast.Inspect(pass.File, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calledFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
			return true
		}
		if len(call.Args) < 2 {
			return true
		}
		lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		format, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		for _, arg := range plainVerbArgs(format) {
			if 1+arg < len(call.Args) && isErrorType(pass.TypeOf(call.Args[1+arg])) {
				pass.Reportf(lit.Pos(),
					"fmt.Errorf formats an error with %%v/%%s, severing errors.Is/As; wrap it with %%w")
				break
			}
		}
		return true
	})
}

// plainVerbArgs returns, in order, the argument index of every verb in
// format that is a plain %v or %s (no flags, width, or precision). Other
// verbs still occupy their argument slot; %% consumes none.
func plainVerbArgs(format string) []int {
	var args []int
	arg := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' || i+1 >= len(format) {
			continue
		}
		j := i + 1
		if format[j] == '%' {
			i = j
			continue
		}
		// Skip flags, width, precision, and argument indexes to find the
		// verb character.
		plain := true
		for j < len(format) {
			c := format[j]
			if c == '+' || c == '-' || c == '#' || c == ' ' || c == '0' ||
				(c >= '1' && c <= '9') || c == '.' || c == '*' || c == '[' || c == ']' {
				plain = false
				j++
				continue
			}
			break
		}
		if j >= len(format) {
			break
		}
		if plain && (format[j] == 'v' || format[j] == 's') {
			args = append(args, arg)
		}
		arg++
		i = j
	}
	return args
}

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorInterface) ||
		types.Implements(types.NewPointer(t), errorInterface)
}

var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
