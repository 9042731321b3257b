// Package main exercises the unreachable rule: package-level code is
// reported unless a main, an init or a package var initialiser reaches
// it, following uses, selections and, for methods, interface names.
package main

import "fmt"

func main() {
	fmt.Println(live(), table["a"](), box[int]{v: 1}.get())
	var s fmt.Stringer = shown{}
	var a area = square{}
	fmt.Println(s, a.Area(), used{}.Called())
}

func init() { fromInit() }

// fromInit is reached from init.
func fromInit() {}

// table is a package var initialiser: everything it names is reached.
var table = map[string]func() int{"a": fromVar}

func fromVar() int { return 1 }

// live is reached from main, and deeper only through live.
func live() int { return 2 + deeper() }

func deeper() int { return 0 }

// box is generic: the selection of get on box[int] reaches the origin.
type box[T any] struct{ v T }

func (b box[T]) get() T { return b.v }

// g → f: a dead chain, both ends reported.
func f() int { return 3 } // want `func f is reached from no main`

func g() int { return f() } // want `func g is reached from no main`

// shown's String is reached only through fmt.Stringer's method name.
type shown struct{}

func (shown) String() string { return "shown" }

// area is the program's own interface: square.Area is reached by name.
type area interface{ Area() float64 }

type square struct{}

func (square) Area() float64 { return 1 }

// used is reached; of its methods only the one selected is.
type used struct{}

func (used) Called() int { return 4 }

func (used) Uncalled() int { return 5 } // want `method used.Uncalled is reached from no main`

// dead is reported once, at the type, and not once per method.
type dead struct{} // want `type dead is reached from no main`

func (dead) One() int { return 6 }

func (dead) String() string { return "dead" }

const unusedConst = 7 // want `const unusedConst is reached from no main`

var unusedVar int // want `var unusedVar is reached from no main`

// kept is a root by its directive, so keptHelper is reached too.
//
//homesight:ignore unreachable — a reference the tests of another package read
func kept() int { return keptHelper() }

func keptHelper() int { return 8 }
