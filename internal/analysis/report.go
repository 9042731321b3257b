package analysis

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// relativize shortens a finding path to be root-relative when possible,
// so reports are stable across checkouts.
func relativize(root, filename string) string {
	if rel, err := filepath.Rel(root, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(filename)
}

// WriteText renders findings in the canonical
// "file:line: [rule] message" form, one per line, paths root-relative.
func WriteText(w io.Writer, root string, findings []Finding) error {
	for _, f := range findings {
		_, err := fmt.Fprintf(w, "%s:%d: [%s] %s\n",
			relativize(root, f.Pos.Filename), f.Pos.Line, f.Rule, f.Message)
		if err != nil {
			return err
		}
	}
	return nil
}
