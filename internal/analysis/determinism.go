package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism enforces the paper-reproduction contract that every
// pipeline stage is bit-deterministic: the experiments' outputs must be
// byte-identical at any parallelism, the synth traffic must be a pure
// function of its seed, and the store's encoded bytes must depend only
// on the appended reports. A stray time.Now or top-level math/rand call
// anywhere under those paths silently breaks all three.
//
// The rule runs in two layers:
//
//   - Facts: every function that calls time.Now/Since/Until or an
//     unseeded math/rand top-level function — directly or transitively
//     through module-internal calls — exports a cross-package taint fact.
//   - Run: inside deterministic scope (every homesight/internal package
//     except the exempt observability and analysis layers, which measure
//     real time by design), direct wall-clock or
//     unseeded-rand calls are flagged, and so is any call to a function
//     whose exported fact says the taint is reachable through it.
//
// A third source needs no call at all: Go randomises map iteration order,
// and floating-point addition is not associative, so a float `+=`, `-=`
// or `*=` inside a range over a map yields different bits from run to run
// whenever its target outlives the loop and is shared across keys (not
// indexed by the range key). That is flagged too; the fix is to iterate
// in a sorted order or to accumulate integers.
//
// The sanctioned fixes: thread a seeded *rand.Rand (math/rand methods on
// an injected generator are clean), or inject a clock — store the
// time.Now *function value* in a field at construction (`now: time.Now`
// is a reference, not a call, and is deliberately not flagged) and call
// the field on the hot path. An intentional wall-clock read carries
// //homesight:ignore determinism with a rationale; note the annotation
// suppresses only that finding — the function still exports its taint
// fact, so deterministic callers of it remain flagged.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "wall-clock (time.Now/Since/Until) or unseeded math/rand reached from a " +
		"deterministic pipeline stage, or a float sum in map order; inject a clock, " +
		"thread a seeded *rand.Rand, or iterate in a sorted order",
	Facts: factsDeterminism,
	Run:   runDeterminism,
}

// determinismExempt subtrees may touch the wall clock freely: the
// observability layer measures real time by design, and binaries sit
// at the process edge where wall time is the interface.
var determinismExempt = []string{
	"homesight/internal/obs",
	"homesight/internal/analysis",
	"homesight/cmd",
}

// detFact marks a function through which a wall-clock or unseeded-rand
// call is reachable.
type detFact struct {
	// Wall and Rand say which taint is reachable; Via is a short
	// human-readable call chain ("engine.tick → time.Now").
	Wall, Rand bool
	Via        string
}

// unseededRandFuncs are the math/rand (and v2) top-level draws. The
// constructors (New, NewSource, NewZipf, NewPCG, NewChaCha8) are the
// seeding mechanism itself and stay clean.
var unseededRandFuncs = map[string]bool{
	"ExpFloat64": true, "Float32": true, "Float64": true,
	"Int": true, "Int31": true, "Int31n": true, "Int63": true, "Int63n": true,
	"Intn": true, "NormFloat64": true, "Perm": true, "Read": true, "Seed": true,
	"Shuffle": true, "Uint32": true, "Uint64": true,
	// math/rand/v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true, "Int64N": true,
	"N": true, "Uint": true, "UintN": true, "Uint32N": true, "Uint64N": true,
}

func determinismExemptPath(path string) bool {
	for _, prefix := range determinismExempt {
		if path == prefix || strings.HasPrefix(path, prefix+"/") {
			return true
		}
	}
	return false
}

// directDetTaint classifies one call expression as a direct taint
// source. It returns the zero fact for clean calls.
func directDetTaint(info *types.Info, call *ast.CallExpr) detFact {
	fn := calledFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return detFact{}
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		// Methods (e.g. (*rand.Rand).Intn on a seeded generator, or
		// (time.Time).Sub) are fine; only package-level calls taint.
		return detFact{}
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return detFact{Wall: true, Via: "time." + fn.Name()}
		}
	case "math/rand", "math/rand/v2":
		if unseededRandFuncs[fn.Name()] {
			return detFact{Rand: true, Via: "rand." + fn.Name()}
		}
	}
	return detFact{}
}

// calledFunc resolves the *types.Func a call invokes, when the callee is
// a plain identifier or selector (calls through function values return
// nil — an injected clock is exactly such a seam).
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// factsDeterminism computes, per package, which functions reach a taint
// source, and exports a detFact for each. Cross-package propagation
// falls out of the dependency-ordered facts phase; intra-package cycles
// are resolved with a fixpoint loop.
func factsDeterminism(fp *FactPass) {
	if determinismExemptPath(fp.Pkg.Path) {
		return
	}
	info := fp.Pkg.Info

	// One entry per declared function: its object, body, and current fact.
	type fnState struct {
		obj  types.Object
		body *ast.BlockStmt
		fact detFact
	}
	var fns []*fnState
	index := map[types.Object]*fnState{}
	for _, file := range fp.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			st := &fnState{obj: obj, body: fd.Body}
			fns = append(fns, st)
			index[obj] = st
		}
	}

	// taintOf inspects one body for direct taints, cross-package facts,
	// and intra-package calls to already-tainted functions.
	taintOf := func(st *fnState) detFact {
		fact := st.fact
		ast.Inspect(st.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if d := directDetTaint(info, call); d.Wall || d.Rand {
				fact.Wall = fact.Wall || d.Wall
				fact.Rand = fact.Rand || d.Rand
				if fact.Via == "" {
					fact.Via = d.Via
				}
				return true
			}
			fn := calledFunc(info, call)
			if fn == nil {
				return true
			}
			// Imported fact (cross-package) or same-package state.
			if f, ok := fp.ImportObjectFact(fn); ok {
				df := f.(detFact)
				fact.Wall = fact.Wall || df.Wall
				fact.Rand = fact.Rand || df.Rand
				if fact.Via == "" {
					fact.Via = fn.Name() + " → " + df.Via
				}
			} else if st2, ok := index[fn]; ok && (st2.fact.Wall || st2.fact.Rand) {
				fact.Wall = fact.Wall || st2.fact.Wall
				fact.Rand = fact.Rand || st2.fact.Rand
				if fact.Via == "" {
					fact.Via = fn.Name() + " → " + st2.fact.Via
				}
			}
			return true
		})
		return fact
	}

	for changed := true; changed; {
		changed = false
		for _, st := range fns {
			f := taintOf(st)
			if f != st.fact {
				st.fact = f
				changed = true
			}
		}
	}
	for _, st := range fns {
		if st.fact.Wall || st.fact.Rand {
			fp.ExportObjectFact(st.obj, st.fact)
		}
	}
}

func runDeterminism(pass *Pass) {
	if determinismExemptPath(pass.Path) {
		return
	}
	if !strings.HasPrefix(pass.Path, "homesight/internal/") && !strings.HasPrefix(pass.Path, "fixture/") {
		// Deterministic scope is the library tree; the module root and
		// other top-level packages sit at the process edge.
		return
	}
	ast.Inspect(pass.File, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			checkMapOrderSums(pass, rs)
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if d := directDetTaint(pass.Info, call); d.Wall || d.Rand {
			what := "wall-clock " + d.Via
			fix := "inject a clock (store time.Now as a func value at construction)"
			if d.Rand {
				what = "unseeded " + d.Via
				fix = "thread a seeded *rand.Rand from the experiment/synth seed"
			}
			pass.Reportf(call.Pos(),
				"%s in deterministic scope breaks bit-reproducibility; %s or annotate //homesight:ignore determinism",
				what, fix)
			return true
		}
		fn := calledFunc(pass.Info, call)
		if fn == nil {
			return true
		}
		if f, ok := pass.ObjectFact(fn); ok {
			df := f.(detFact)
			what := "wall clock"
			if df.Rand {
				what = "unseeded math/rand"
				if df.Wall {
					what = "wall clock and unseeded math/rand"
				}
			}
			pass.Reportf(call.Pos(),
				"call to %s reaches %s (%s) in deterministic scope; push the taint behind an injected clock/seeded generator or annotate //homesight:ignore determinism",
				fn.Name(), what, df.Via)
		}
		return true
	})
}

// checkMapOrderSums flags the float accumulations inside a range over a
// map whose result depends on the iteration order: a `+=`, `-=` or `*=`
// on a float target declared outside the loop and not indexed by the
// range key. Nested loops are included — the map order still decides the
// sequence of additions.
func checkMapOrderSums(pass *Pass, rs *ast.RangeStmt) {
	if _, ok := pass.Info.TypeOf(rs.X).Underlying().(*types.Map); !ok {
		return
	}
	var key types.Object
	if id, ok := rs.Key.(*ast.Ident); ok {
		key = pass.Info.ObjectOf(id)
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 {
			return true
		}
		switch as.Tok.String() {
		case "+=", "-=", "*=":
		default:
			return true
		}
		target := as.Lhs[0]
		if b, ok := pass.Info.TypeOf(target).Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
			return true
		}
		root, keyed := rootOf(pass.Info, target, key)
		if keyed || root == nil || (root.Pos() >= rs.Pos() && root.Pos() < rs.End()) {
			return true
		}
		pass.Reportf(as.Pos(),
			"float %s on %s inside a range over a map sums in map order, which Go randomises, so the bits differ from run to run; iterate in a sorted order or accumulate integers",
			as.Tok, root.Name())
		return true
	})
}

// rootOf returns the variable an assignment target is rooted in (x for
// x, x.f, x[i], *x …) and whether some index on the way is the range key.
func rootOf(info *types.Info, e ast.Expr, key types.Object) (root types.Object, keyed bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x), keyed
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			if id, ok := ast.Unparen(x.Index).(*ast.Ident); ok && key != nil && info.ObjectOf(id) == key {
				keyed = true
			}
			e = x.X
		default:
			return nil, keyed
		}
	}
}
