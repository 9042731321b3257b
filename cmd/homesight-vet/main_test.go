package main

import (
	"bytes"
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
