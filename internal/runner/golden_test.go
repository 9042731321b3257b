package runner

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"homesight/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/suite_*.golden from this tree's output")

// renderSuite executes the standard suite the way `homesight experiments` does
// (NewEnv, warm, engine run, shape checks) and returns everything it
// would print that depends on the analyses.
func renderSuite(t *testing.T, seed int64, parallelism int) string {
	t.Helper()
	e, err := experiments.NewEnv(
		experiments.WithHomes(16), experiments.WithWeeks(2),
		experiments.WithSeed(seed), experiments.WithParallelism(parallelism))
	if err != nil {
		t.Fatal(err)
	}
	var res experiments.Results
	exps := StandardExperiments(&res)
	var eng Engine
	reports, _, err := eng.Run(context.Background(), e, exps)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i, rep := range reports {
		fmt.Fprintf(&b, "=== %s — %s\n%s\n", rep.ID, exps[i].Doc(), rep.Result.Text)
	}
	fmt.Fprintf(&b, "=== shapes\n%s\n", experiments.RenderShapeChecks(res.ShapeChecks()))
	return b.String()
}

// TestSuiteGolden holds the rendered output of the whole standard suite —
// all 17 reports plus the shape-check table — to checked-in files, for
// two deployments at 16 homes × 2 weeks, sequentially and on four
// workers. A refactor of the shared per-home intermediates that moves any
// printed digit, or makes the parallel run differ from the sequential
// one, fails here. The rendering is the one bench/ hashes, so the two
// files' sha256 are the first two lines of
// bench/testdata/analysis_suite.sha256. `go test ./internal/runner -run
// TestSuiteGolden -update` regenerates the files; a diff in them is a
// change to what the paper reproduction reports and needs saying so.
func TestSuiteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("four executions of the full suite")
	}
	for _, seed := range []int64{20140317, 20140318} {
		path := filepath.Join("testdata", fmt.Sprintf("suite_h16_w2_seed%d.golden", seed))
		got := renderSuite(t, seed, 1)
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		for _, run := range []struct {
			parallelism int
			out         string
		}{{1, got}, {4, renderSuite(t, seed, 4)}} {
			if run.out != string(want) {
				line, g, w := firstDiffLine(run.out, string(want))
				t.Errorf("seed %d, parallelism %d: output differs from %s at line %d:\n got %q\nwant %q",
					seed, run.parallelism, path, line, g, w)
			}
		}
	}
}

// firstDiffLine returns the 1-based number of the first line on which a
// and b differ, and the two lines ("" past the end of the shorter text).
func firstDiffLine(a, b string) (int, string, string) {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			return i + 1, x, y
		}
	}
	return 0, "", ""
}
