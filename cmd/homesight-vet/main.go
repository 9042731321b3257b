// Command homesight-vet runs homesight's project-specific static analysis:
// twelve stdlib-only (go/ast + go/types) rules that mechanically enforce
// the repo's statistical, determinism and observability invariants — the
// Definition 1 significance gate, no exact float equality, no silently
// dropped errors or contexts, joinable goroutine fan-out, named paper
// thresholds, deterministic time and randomness, error wrapping with %w,
// metrics↔catalog parity, and no production code that only tests reach.
//
// Usage:
//
//	homesight-vet [-rules r1,r2] [-C dir] [-catalog FILE] [./...]
//	homesight-vet -list
//
// Findings print as "file:line: [rule] message"; the exit status is 0 when
// clean, 1 on findings, 2 on load or usage errors. Per-line opt-outs:
// //homesight:ignore <rule> — <reason> (or //homesight:rawcorr for
// sig-gate).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"homesight/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind main: it parses args, analyzes the
// module and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("homesight-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rules := fs.String("rules", "", "comma-separated rule subset (default: all)")
	list := fs.Bool("list", false, "list rules and exit")
	dir := fs.String("C", ".", "change to directory before running")
	catalog := fs.String("catalog", "", "observability catalog path for metrics-parity (default: <module>/OBSERVABILITY.md)")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "homesight-vet:", err)
		return 2
	}

	analyzers := analysis.All()
	if *rules != "" {
		var err error
		if analyzers, err = analysis.ByName(*rules); err != nil {
			return fail(err)
		}
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	mod, err := analysis.NewModule(*dir)
	if err != nil {
		return fail(err)
	}
	paths, err := selectPackages(mod, fs.Args())
	if err != nil {
		return fail(err)
	}

	// Load and type-check the whole module in parallel even when the CLI
	// restricts the reported packages: cross-package facts (determinism,
	// metrics-parity) must see every package to be sound.
	pkgs, err := mod.LoadAll()
	if err != nil {
		return fail(err)
	}
	typeErrs := 0
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "homesight-vet: %s: type error: %v\n", pkg.Path, terr)
			typeErrs++
		}
	}
	if typeErrs > 0 {
		return 2
	}

	findings, err := analysis.Run(mod, pkgs, analyzers, analysis.RunOptions{
		Catalog:  *catalog,
		Packages: paths,
	})
	if err != nil {
		return fail(err)
	}
	if err := analysis.WriteText(stdout, mod.Root, findings); err != nil {
		return fail(err)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// selectPackages expands the command-line patterns ("./...", "./internal/x",
// import paths) into module package paths; no arguments means the module.
func selectPackages(mod *analysis.Module, args []string) ([]string, error) {
	all, err := mod.PackageDirs()
	if err != nil {
		return nil, err
	}
	if len(args) == 0 {
		return all, nil
	}
	var out []string
	seen := map[string]bool{}
	for _, arg := range args {
		matched := false
		for _, p := range all {
			if !matchPattern(mod, arg, p) || seen[p] {
				continue
			}
			seen[p] = true
			out = append(out, p)
			matched = true
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matches no packages", arg)
		}
	}
	return out, nil
}

// matchPattern reports whether package path p matches one CLI pattern.
func matchPattern(mod *analysis.Module, pattern, p string) bool {
	// Normalize "./x" and "x" to the import-path form.
	pat := strings.TrimPrefix(filepath.ToSlash(pattern), "./")
	if pat == "..." || pat == "" {
		return true
	}
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		full := mod.Path + "/" + rest
		return p == full || strings.HasPrefix(p, full+"/") ||
			p == rest || strings.HasPrefix(p, rest+"/")
	}
	return p == pat || p == mod.Path+"/"+pat
}
