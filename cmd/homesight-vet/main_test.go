package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// vetModule writes a one-package module holding fixture.go with the given
// body and returns its root.
func vetModule(t *testing.T, body string) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":     "module vetfixture\n\ngo 1.22\n",
		"fixture.go": "package vetfixture\n\n" + body,
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// vet runs the command with args and returns its exit status and output.
func vet(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRunExitContract pins the driver's exit statuses: 1 with a
// "file:line: [rule]" line per finding, 0 when clean, 2 on usage errors,
// including flags the driver does not define.
func TestRunExitContract(t *testing.T) {
	dirty := vetModule(t, "func Same(a, b float64) bool { return a == b }\n")
	code, out, errOut := vet("-C", dirty, "-rules", "float-eq", "./...")
	if code != 1 {
		t.Fatalf("float-eq violation: exit %d, want 1\nstdout:\n%sstderr:\n%s", code, out, errOut)
	}
	if !regexp.MustCompile(`(?m)^fixture\.go:3: \[float-eq\] `).MatchString(out) {
		t.Errorf("float-eq violation: want a fixture.go:3: [float-eq] line, got:\n%s", out)
	}

	clean := vetModule(t, "func Same(a, b float64) bool { return a < b }\n")
	if code, out, errOut := vet("-C", clean, "./..."); code != 0 || out != "" {
		t.Errorf("clean module: exit %d, want 0\nstdout:\n%sstderr:\n%s", code, out, errOut)
	}

	for _, args := range [][]string{
		{"-C", clean, "-rules", "no-such-rule", "./..."},
		{"-C", clean, "-fix", "./..."},
	} {
		if code, _, _ := vet(args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestFixtureModuleGolden drives the whole command — LoadAll, the three
// analysis phases and the text writer — over a multi-package module made
// from the rule fixtures that import nothing from homesight (every dir of
// internal/analysis/testdata/src but metrics-parity and sig-gate), one
// package per fixture under module path "fixture", and holds its stdout
// and exit status to testdata/fixtures.golden.
func TestFixtureModuleGolden(t *testing.T) {
	src := filepath.Join("..", "..", "internal", "analysis", "testdata", "src")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixture\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "metrics-parity" || e.Name() == "sig-gate" {
			continue
		}
		files, err := os.ReadDir(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(filepath.Join(dir, e.Name()), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(src, e.Name(), f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name(), f.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	code, out, errOut := vet("-C", dir, "./...")
	got := fmt.Sprintf("%sexit %d\n", out, code)
	want, err := os.ReadFile(filepath.Join("testdata", "fixtures.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from testdata/fixtures.golden\nstderr:\n%s\ngot:\n%s", errOut, got)
	}
}
