package analysis

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// wantRe extracts the backquoted pattern of a `// want `...“ comment.
var wantRe = regexp.MustCompile("//\\s*want\\s+`([^`]+)`")

// wantComment is one expected diagnostic: a regexp that must match a
// finding reported on the same line of the same file.
type wantComment struct {
	file    string // base name
	line    int
	pattern *regexp.Regexp
	matched bool
}

// parseWants scans one fixture file for `// want `regexp“ comments.
// Works on any line-oriented text (Go sources and markdown catalogs).
func parseWants(t *testing.T, filename string) []*wantComment {
	t.Helper()
	f, err := os.Open(filename)
	if err != nil {
		t.Fatalf("open fixture: %v", err)
	}
	defer func() { _ = f.Close() }()
	var wants []*wantComment
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		m := wantRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		re, err := regexp.Compile(m[1])
		if err != nil {
			t.Fatalf("%s:%d: bad want pattern %q: %v", filename, line, m[1], err)
		}
		wants = append(wants, &wantComment{file: filepath.Base(filename), line: line, pattern: re})
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan fixture: %v", err)
	}
	return wants
}

// fixtureWantFiles lists the files of a fixture dir that may carry want
// comments: Go sources and markdown catalogs.
func fixtureWantFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), ".md") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// fixtureCatalog returns the dir's CATALOG.md path when present, else "".
func fixtureCatalog(dir string) string {
	p := filepath.Join(dir, "CATALOG.md")
	if _, err := os.Stat(p); err == nil {
		return p
	}
	return ""
}

// LoadDir type-checks a standalone directory (a test fixture) under a
// caller-chosen import path, resolving its imports through the module.
func (m *Module) LoadDir(dir, asPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return m.check(asPath, abs, nonTestGoFiles(abs))
}

// runFixture runs one rule's full three-phase analysis over its fixture
// package.
func runFixture(t *testing.T, mod *Module, rule string) (*Package, []Finding) {
	t.Helper()
	analyzers, err := ByName(rule)
	if err != nil {
		t.Fatalf("fixture dir %q does not name a rule: %v", rule, err)
	}
	dir := filepath.Join("testdata", "src", rule)
	pkg, err := mod.LoadDir(dir, "fixture/"+rule)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture must type-check; got %v", pkg.TypeErrors)
	}
	return pkg, Run(mod, []*Package{pkg}, analyzers, RunOptions{Catalog: fixtureCatalog(dir)})
}

// TestGolden runs each rule's full three-phase analysis over the fixture
// package named after it under testdata/src and requires the findings to
// match the `// want` comments exactly: every want matched by a finding
// on its line, every finding claimed by a want. Wants are parsed from
// every Go source and markdown file in the fixture dir, so doc-side
// findings (metrics-parity's catalog checks) are golden-tested too.
func TestGolden(t *testing.T) {
	mod, err := NewModule(".")
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("read testdata/src: %v", err)
	}
	// Rule <-> fixture-dir bijection, both directions.
	dirs := map[string]bool{}
	for _, e := range entries {
		dirs[e.Name()] = true
	}
	for _, a := range All() {
		if !dirs[a.Name] {
			t.Errorf("rule %s has no fixture dir under testdata/src", a.Name)
		}
	}
	if len(entries) != len(All()) {
		t.Errorf("testdata/src has %d fixture dirs, want one per rule (%d)", len(entries), len(All()))
	}
	for _, entry := range entries {
		rule := entry.Name()
		t.Run(rule, func(t *testing.T) {
			_, findings := runFixture(t, mod, rule)
			dir := filepath.Join("testdata", "src", rule)
			var wants []*wantComment
			for _, filename := range fixtureWantFiles(t, dir) {
				wants = append(wants, parseWants(t, filename)...)
			}
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no // want comments", rule)
			}
			for _, f := range findings {
				claimed := false
				for _, w := range wants {
					if w.file == filepath.Base(f.Pos.Filename) && w.line == f.Pos.Line &&
						!w.matched && w.pattern.MatchString(f.Message) {
						w.matched = true
						claimed = true
						break
					}
				}
				if !claimed {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: want %q, got no matching finding", w.file, w.line, w.pattern)
				}
			}
		})
	}
}

// repoRun loads and analyzes the whole module exactly once and shares the
// result across tests (the load is the expensive part).
var repoRun struct {
	once    sync.Once
	mod     *Module
	pkgs    []*Package
	res     []Finding
	elapsed time.Duration // load plus the three-phase run
	err     error
}

func loadRepoRun(t *testing.T) {
	t.Helper()
	repoRun.once.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			repoRun.err = err
			return
		}
		t0 := time.Now()
		mod, err := NewModule(root)
		if err != nil {
			repoRun.err = err
			return
		}
		pkgs, err := mod.LoadAll()
		if err != nil {
			repoRun.err = err
			return
		}
		res := Run(mod, pkgs, All(), RunOptions{})
		repoRun.elapsed = time.Since(t0)
		repoRun.mod, repoRun.pkgs, repoRun.res = mod, pkgs, res
	})
	if repoRun.err != nil {
		t.Fatalf("repo analysis: %v", repoRun.err)
	}
}

// TestSelfCheck asserts the vetted repository stays clean: every package
// in the module type-checks and the full three-phase run (facts, rules,
// module-level finish) produces zero findings. This is the same
// invariant `go run ./cmd/homesight-vet ./...` enforces in CI.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	loadRepoRun(t)
	if len(repoRun.pkgs) == 0 {
		t.Fatal("LoadAll returned no packages")
	}
	for _, pkg := range repoRun.pkgs {
		for _, te := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Path, te)
		}
	}
	for _, f := range repoRun.res {
		t.Errorf("repo is not vet-clean: %s", f)
	}
}

// TestFullRunUnderCeiling asserts a whole-repo load and analysis stays
// comfortably inside the CI budget. The ceiling is deliberately generous
// (the observed full run is a few seconds); it exists to catch a package
// checked more than once or a quadratic pass, not to benchmark.
func TestFullRunUnderCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	loadRepoRun(t)
	const ceiling = 60 * time.Second
	if repoRun.elapsed > ceiling {
		t.Errorf("full-repo load+analysis took %v, ceiling %v", repoRun.elapsed, ceiling)
	}
}

func TestByName(t *testing.T) {
	got, err := ByName("sig-gate,float-eq")
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	if len(got) != 2 || got[0].Name != "sig-gate" || got[1].Name != "float-eq" {
		t.Errorf("ByName(sig-gate,float-eq) = %v", got)
	}
	if _, err := ByName("no-such-rule"); err == nil {
		t.Error("ByName(no-such-rule) succeeded, want error")
	}
}

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text  string
		rules []string
		ok    bool
	}{
		{"//homesight:rawcorr — deliberate", []string{"sig-gate"}, true},
		{"//homesight:ignore float-eq — tie detection", []string{"float-eq"}, true},
		{"//homesight:ignore float-eq, bare-alpha -- two rules", []string{"float-eq", "bare-alpha"}, true},
		{"//homesight:ignore", []string{"*"}, true},
		{"// ordinary comment", nil, false},
		{"//homesight:stats", nil, false},
	}
	for _, tc := range cases {
		rules, ok := parseDirective(tc.text)
		if ok != tc.ok {
			t.Errorf("parseDirective(%q) ok = %v, want %v", tc.text, ok, tc.ok)
			continue
		}
		if len(rules) != len(tc.rules) {
			t.Errorf("parseDirective(%q) = %v, want %v", tc.text, rules, tc.rules)
			continue
		}
		for i := range rules {
			if rules[i] != tc.rules[i] {
				t.Errorf("parseDirective(%q) = %v, want %v", tc.text, rules, tc.rules)
				break
			}
		}
	}
}

// TestUnreachablePackages covers what a one-package fixture cannot: a
// package no program imports is reported once, at its package clause,
// and a directive there keeps it and everything it imports.
func TestUnreachablePackages(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":           "module unreach\n\ngo 1.22\n",
		"main.go":          "package main\n\nfunc main() {}\n",
		"orphan/orphan.go": "package orphan\n\nfunc Dead() {}\n",
		"kept/kept.go": "// Package kept is test support.\n//\n//homesight:ignore unreachable — (c) a fixture\n" +
			"package kept\n\nimport \"unreach/dep\"\n\nfunc Helper() int { return dep.Value() }\n",
		"dep/dep.go": "package dep\n\nfunc Value() int { return 1 }\n\nfunc Unused() {}\n",
	})
	mod, err := NewModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := mod.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(mod, pkgs, []*Analyzer{Unreachable}, RunOptions{})
	var got []string
	for _, f := range findings {
		rel, _ := filepath.Rel(dir, f.Pos.Filename)
		got = append(got, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), f.Pos.Line, f.Message))
	}
	want := []string{
		"dep/dep.go:5: func Unused is reached from no main, init or package var initialiser; delete it, or move it into a _test.go file",
		"orphan/orphan.go:1: package unreach/orphan is imported by no program; delete it, or keep it with a reason",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// writeModule writes files (slash paths relative to the root, go.mod
// included) into a temp dir and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// checkDependencyOrder fails unless every package of pkgs comes after
// each package of pkgs that it imports.
func checkDependencyOrder(t *testing.T, pkgs []*Package) {
	t.Helper()
	index := map[string]int{}
	for i, pkg := range pkgs {
		index[pkg.Path] = i
	}
	for i, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if j, ok := index[path]; ok && j > i {
					t.Errorf("LoadAll returned %s (#%d) before its import %s (#%d)", pkg.Path, i, path, j)
				}
			}
		}
	}
}

// TestLoadAllDependencyOrder holds the contract Run's facts phase relies
// on: LoadAll returns every package after the module packages it
// imports. In the module below import-path order puts internal/a before
// internal/z. The run phase reads z's fact for a's call to Clock in any
// order, but b's finding needs a's fact "Stamp reaches the wall clock",
// which the facts phase can only derive after z's facts are exported.
func TestLoadAllDependencyOrder(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":          "module homesight\n\ngo 1.22\n",
		"internal/a/a.go": "package a\n\nimport \"homesight/internal/z\"\n\nfunc Stamp() int64 { return z.Clock().Unix() }\n",
		"internal/z/z.go": "package z\n\nimport \"time\"\n\nfunc Clock() time.Time { return time.Now() }\n",
		"internal/b/b.go": "package b\n\nimport \"homesight/internal/a\"\n\nfunc Day() int64 { return a.Stamp() / 86400 }\n",
		"cmd/x/main.go":   "package main\n\nimport \"homesight/internal/b\"\n\nfunc main() { _ = b.Day() }\n",
	})
	mod, err := NewModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := mod.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	checkDependencyOrder(t, pkgs)
	var got []string
	for _, f := range Run(mod, pkgs, All(), RunOptions{}) {
		rel, _ := filepath.Rel(dir, f.Pos.Filename)
		got = append(got, fmt.Sprintf("%s:%d: [%s] %s", filepath.ToSlash(rel), f.Pos.Line, f.Rule, f.Message))
	}
	want := []string{
		"internal/a/a.go:5: [determinism] call to Clock reaches wall clock (time.Now) in deterministic scope; " +
			"push the taint behind an injected clock/seeded generator or annotate //homesight:ignore determinism",
		"internal/b/b.go:5: [determinism] call to Stamp reaches wall clock (Clock → time.Now) in deterministic scope; " +
			"push the taint behind an injected clock/seeded generator or annotate //homesight:ignore determinism",
		"internal/z/z.go:5: [determinism] wall-clock time.Now in deterministic scope breaks bit-reproducibility; " +
			"inject a clock (store time.Now as a func value at construction) or annotate //homesight:ignore determinism",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	if testing.Short() {
		return
	}
	loadRepoRun(t)
	checkDependencyOrder(t, repoRun.pkgs)
}
