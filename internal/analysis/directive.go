package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// This file owns the //homesight: comment-directive grammar:
//
//	//homesight:ignore <rule>[, <rule>...] [— rationale]
//	//homesight:ignore                      (wildcard: every rule)
//	//homesight:rawcorr [— rationale]       (alias for ignore sig-gate)
//
// An ignore directive suppresses findings on its own line, or — when it
// stands alone on a comment line — on the line directly below. Rationale
// text after an em dash ("—") or "--" is free prose. Directives never
// suppress fact export: a function whose wall-clock call is annotated
// still taints its callers, because the annotation vouches only for the
// annotated site.

// ignoreSet maps source lines to the rules suppressed there. The wildcard
// rule "*" suppresses everything on the line.
type ignoreSet map[int]ruleFlags

func (s ignoreSet) covers(rule string, line int) bool {
	for _, l := range []int{line, line - 1} {
		if rules, ok := s[l]; ok && (rules[rule] || rules["*"]) {
			// A directive on the line above only applies when it stands
			// alone; collectIgnores records such lines under the comment's
			// own line, so line-1 membership is exactly the "above" case.
			if l == line || rules.standalone() {
				return true
			}
		}
	}
	return false
}

type ruleFlags map[string]bool

func (r ruleFlags) standalone() bool { return r["standalone"] }

// collectIgnores extracts //homesight:ignore and //homesight:rawcorr
// directives from the file's comments.
func collectIgnores(fset *token.FileSet, file *ast.File) ignoreSet {
	out := ignoreSet{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			rules, ok := parseDirective(c.Text)
			if !ok {
				continue
			}
			pos := fset.Position(c.Slash)
			flags := out[pos.Line]
			if flags == nil {
				flags = ruleFlags{}
				out[pos.Line] = flags
			}
			for _, r := range rules {
				flags[r] = true
			}
			if pos.Column == 1 || isCommentOnlyLine(fset, file, pos) {
				flags["standalone"] = true
			}
		}
	}
	return out
}

// isCommentOnlyLine reports whether the comment at pos shares its line
// with no code. Comments attached to declarations start at the line's
// first token, so comparing against the file's token positions is enough:
// a same-line code token would start at a smaller column.
func isCommentOnlyLine(fset *token.FileSet, file *ast.File, pos token.Position) bool {
	only := true
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil || !only {
			return false
		}
		p := fset.Position(n.Pos())
		if p.Line == pos.Line && p.Column < pos.Column {
			only = false
			return false
		}
		return true
	})
	return only
}

// parseDirective parses one comment line into the rules it suppresses;
// any other comment returns ok=false.
func parseDirective(text string) ([]string, bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	switch {
	case strings.HasPrefix(text, "homesight:rawcorr"):
		return []string{"sig-gate"}, true
	case strings.HasPrefix(text, "homesight:ignore"):
		rest := strings.TrimPrefix(text, "homesight:ignore")
		// Everything after an em dash or "--" is rationale, not rule names.
		for _, sep := range []string{"—", "--"} {
			if i := strings.Index(rest, sep); i >= 0 {
				rest = rest[:i]
			}
		}
		var rules []string
		for _, f := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
			rules = append(rules, f)
		}
		if len(rules) == 0 {
			rules = []string{"*"}
		}
		return rules, true
	}
	return nil, false
}
