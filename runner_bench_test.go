package homesight

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"homesight/internal/experiments"
	"homesight/internal/runner"
	"homesight/internal/telemetry"
)

// runSuite executes the full standard suite on a fresh scaled-down Env
// (16 homes, 2 weeks) at the given parallelism and returns the concatenated
// rendered reports plus the run metrics. A fresh Env per call keeps the
// cache counters comparable between runs.
func runSuite(tb testing.TB, parallelism int) (string, telemetry.RunMetrics) {
	tb.Helper()
	e, err := experiments.NewEnv(
		experiments.WithHomes(16), experiments.WithWeeks(2),
		experiments.WithParallelism(parallelism))
	if err != nil {
		tb.Fatal(err)
	}
	var res experiments.Results
	eng := runner.Engine{Parallelism: parallelism}
	reports, m, err := eng.Run(context.Background(), e, runner.StandardExperiments(&res))
	if err != nil {
		tb.Fatal(err)
	}
	var b strings.Builder
	for _, rep := range reports {
		b.WriteString("=== " + rep.ID + "\n")
		b.WriteString(rep.Result.Text)
	}
	return b.String(), m
}

// TestRunnerDeterminism is the engine's headline guarantee: the parallel
// run's output is byte-identical to the sequential one.
func TestRunnerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite comparison is slow")
	}
	seq, _ := runSuite(t, 1)
	par, _ := runSuite(t, 4)
	if seq != par {
		d := firstDiff(seq, par)
		t.Fatalf("parallel output diverges from sequential at byte %d: %q vs %q",
			d, clip(seq, d), clip(par, d))
	}
	if seq == "" {
		t.Fatal("empty suite output")
	}
}

func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func clip(s string, at int) string {
	end := at + 40
	if end > len(s) {
		end = len(s)
	}
	if at > len(s) {
		at = len(s)
	}
	return s[at:end]
}

func BenchmarkRunnerSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, m := runSuite(b, 1)
		b.ReportMetric(m.CacheHitRate(), "cache-hit-rate")
	}
}

func BenchmarkRunnerParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, m := runSuite(b, 4)
		b.ReportMetric(m.CacheHitRate(), "cache-hit-rate")
	}
}

// benchEntry is one BENCH_runner.json record. ns_per_op is integer
// nanoseconds — the writer rounds, because fractional nanoseconds made
// diffs noisy and thresholds fragile for no information gained.
type benchEntry struct {
	Name         string  `json:"name"`
	Parallelism  int     `json:"parallelism"`
	NumCPU       int     `json:"num_cpu"`
	NsPerOp      int64   `json:"ns_per_op"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	BuildWaits   int64   `json:"cache_build_waits"`
	Goroutines   int     `json:"goroutine_high_water"`
}

// benchEntryFor converts one run's metrics into its JSON record.
func benchEntryFor(p int, m telemetry.RunMetrics) benchEntry {
	name := "RunnerSequential"
	if p > 1 {
		name = fmt.Sprintf("RunnerParallel%d", p)
	}
	var waits int64
	for _, c := range m.Caches {
		waits += c.BuildWaits
	}
	return benchEntry{
		Name:         name,
		Parallelism:  p,
		NumCPU:       runtime.NumCPU(),
		NsPerOp:      int64(math.Round(m.WallSeconds * 1e9)),
		CacheHitRate: m.CacheHitRate(),
		BuildWaits:   waits,
		Goroutines:   m.GoroutineHighWater,
	}
}

// benchParallelisms is the ladder BENCH_runner.json records: 1, 2, 4 and
// the host's CPU count, deduplicated and ascending.
func benchParallelisms() []int {
	ps := []int{1, 2, 4}
	ncpu := runtime.NumCPU()
	if ncpu != 1 && ncpu != 2 && ncpu != 4 {
		ps = append(ps, ncpu)
	}
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j] < ps[j-1]; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	return ps
}

// TestBenchRunnerJSON writes BENCH_runner.json (integer ns/op, cache hit
// rate and build waits of one full-suite run per parallelism) when
// HOMESIGHT_BENCH_JSON is set — the `make bench` artifact.
func TestBenchRunnerJSON(t *testing.T) {
	path := os.Getenv("HOMESIGHT_BENCH_JSON")
	if path == "" {
		t.Skip("set HOMESIGHT_BENCH_JSON=BENCH_runner.json to write the bench artifact")
	}
	var entries []benchEntry
	for _, p := range benchParallelisms() {
		_, m := runSuite(t, p)
		entries = append(entries, benchEntryFor(p, m))
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if err := writeBenchJSON(f, entries); err != nil {
		t.Fatal(err)
	}
}

// TestBenchWriterRoundTrip pins the writer's format: entries survive an
// encode/decode round trip unchanged, and ns_per_op is serialized as
// integer nanoseconds (no fractional part, ever).
func TestBenchWriterRoundTrip(t *testing.T) {
	in := []benchEntry{
		{Name: "RunnerSequential", Parallelism: 1, NumCPU: 4,
			NsPerOp:      int64(math.Round(8.000708920999999 * 1e9)),
			CacheHitRate: 0.5617283950617284, BuildWaits: 3, Goroutines: 4},
		{Name: "RunnerParallel4", Parallelism: 4, NumCPU: 4,
			NsPerOp: 3049154481, CacheHitRate: 0.96, Goroutines: 23},
	}
	var buf bytes.Buffer
	if err := writeBenchJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out []benchEntry
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("decoding written JSON: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip changed entry count: %d != %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("entry %d changed in round trip:\n in: %+v\nout: %+v", i, in[i], out[i])
		}
	}
	// The serialized ns_per_op must be a bare integer. A fractional value
	// like 8000708920.999999 is exactly the regression this test pins out.
	nsRe := regexp.MustCompile(`"ns_per_op":\s*(\S+?),?\n`)
	matches := nsRe.FindAllStringSubmatch(buf.String(), -1)
	if len(matches) != len(in) {
		t.Fatalf("found %d ns_per_op fields, want %d", len(matches), len(in))
	}
	intRe := regexp.MustCompile(`^\d+$`)
	for _, m := range matches {
		if !intRe.MatchString(m[1]) {
			t.Errorf("ns_per_op serialized as %q, want integer nanoseconds", m[1])
		}
	}
}

func writeBenchJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
