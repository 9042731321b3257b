// Package analysis is homesight's project-specific static-analysis
// framework: a small, stdlib-only (go/ast + go/types) multi-pass analyzer
// plus the rules that mechanically enforce the repo's statistical,
// determinism, concurrency and observability invariants — most importantly
// that every correlation is routed through the Definition 1 significance
// gate and that every pipeline stage stays bit-deterministic.
//
// The framework runs in three passes over a type-checked module:
//
//  1. Facts — analyzers with a Facts hook visit every package in
//     dependency order and export cross-package facts about objects
//     ("this function transitively reaches time.Now") or packages
//     ("this package registers these metric families").
//  2. Run — every analyzer's Run hook visits every file of every
//     package, reading facts and reporting findings.
//  3. Finish — analyzers with a Finish hook run once over the whole
//     module, for invariants that no single package can see (metrics
//     catalog parity).
//
// The cmd/homesight-vet driver loads the module (type-checking packages
// in parallel), runs every analyzer and prints findings as
// "file:line: [rule] message" lines. Findings can be suppressed per line
// with a directive comment:
//
//	x := corr.Pearson(a, b) //homesight:ignore sig-gate — reporting raw r
//
// either on the offending line or on a comment line directly above it.
// The shorthand //homesight:rawcorr is an alias for
// //homesight:ignore sig-gate, for the one invariant the paper itself
// deliberately breaks (reporting raw in/out correlation). See ANALYSIS.md
// for the full rule catalog and the directive grammar.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the driver's canonical "file:line: [rule] message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
}

// Pass carries everything a rule needs to analyze one file of a
// type-checked package. Info is never nil; when type checking partially
// failed, entries may be missing and rules must tolerate nil types.
type Pass struct {
	Fset *token.FileSet
	File *ast.File
	Pkg  *types.Package
	Info *types.Info
	// Path is the package's import path, used by per-package allowlists.
	Path string

	findings *[]Finding
	rule     string
	ignores  ignoreSet
	facts    *FactStore
}

// Reportf records a finding at pos unless an ignore directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.ignores.covers(p.rule, position.Line) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Pos:     position,
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when type checking did not record
// one (e.g. in a package with earlier type errors).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// ObjectFact returns the fact this pass's analyzer exported for obj
// during the facts phase, if any.
func (p *Pass) ObjectFact(obj types.Object) (any, bool) {
	return p.facts.objectFact(p.rule, obj)
}

// Analyzer is one named rule. At least one of Run and Finish must be
// set; Facts is optional and runs before either.
type Analyzer struct {
	// Name is the rule identifier used in findings and ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Facts, when non-nil, runs once per package in dependency order
	// (imported packages first) and exports cross-package facts.
	Facts func(fp *FactPass)
	// Run analyzes one file of a type-checked package.
	Run func(pass *Pass)
	// Finish, when non-nil, runs once after every package has been
	// analyzed, for module-level invariants.
	Finish func(mp *ModulePass)
}

// All returns every registered rule, sorted by name.
func All() []*Analyzer {
	rules := []*Analyzer{
		SigGate,
		FloatEq,
		DroppedErr,
		NakedGoroutine,
		BareAlpha,
		ZeroSentinel,
		PrintfLog,
		Determinism,
		CtxFlow,
		MetricsParity,
		ErrWrap,
		Unreachable,
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].Name < rules[j].Name })
	return rules
}

// ByName resolves a comma-separated rule list; unknown names error.
func ByName(names string) ([]*Analyzer, error) {
	all := All()
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		found := false
		for _, a := range all {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown rule %q", n)
		}
	}
	return out, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Pos.Filename != fs[j].Pos.Filename {
			return fs[i].Pos.Filename < fs[j].Pos.Filename
		}
		if fs[i].Pos.Line != fs[j].Pos.Line {
			return fs[i].Pos.Line < fs[j].Pos.Line
		}
		if fs[i].Rule != fs[j].Rule {
			return fs[i].Rule < fs[j].Rule
		}
		return fs[i].Message < fs[j].Message
	})
}
