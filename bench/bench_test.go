package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// toyScale runs every code path of the four workloads in about a second
// each.
var toyScale = scale{
	ingestHomes: 4, ingestWeeks: 1, ingestTicksPerSecond: 600, shards: 2,
	liveHomes: 4, liveWeeks: 1, livePreload: 120,
	liveTick: 10 * time.Millisecond, livePoll: 20 * time.Millisecond,
	liveProbeEvery: 10, liveReconcile: 3,
	seriesHomes: 4, seriesWeeks: 1, seriesClients: 2,
	analysisHomes: 4, analysisWeeks: 2, analysisExecsPer10s: 40, only: []string{"fig1", "inout"},
	stagedReports: 2000, probes: 16, microReps: 2,
}

// TestSmoke runs all four workloads in-process at toy scale, untraced
// and traced, and holds the output to the catalogue: every end-to-end
// metric is measured and non-zero on every workload, every per-layer
// name of BENCHMARK.json is measured by at least one workload and none
// is measured that the catalogue lacks, every correctness check passes,
// the span file is written, and the staged ingest breakdown sums to the
// end-to-end figure.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads; skipped under -short")
	}
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	measured := make(map[string]bool)
	for _, w := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			dir := t.TempDir()
			traceOut := filepath.Join(dir, "trace.json")
			res, err := runWorkload(context.Background(), sp, runOptions{
				workload: w.Name, seed: defaultSeed, seconds: 0.5, trace: trace, sc: toyScale,
				workdir: dir, testdata: "testdata", traceOut: traceOut,
			})
			if err != nil { // includes a metric missing from, or unknown to, the catalogue
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			for _, c := range res.checks {
				if !c.OK {
					t.Errorf("%s trace=%v: check %s failed: %s", w.Name, trace, c.Name, c.Detail)
				}
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.Name, trace, res.attempted, res.failed)
			}
			for _, m := range sp.EndToEnd {
				if v := res.metrics[m.Name].Value; !(v > 0) {
					t.Errorf("%s trace=%v: end-to-end metric %s = %v, want > 0", w.Name, trace, m.Name, v)
				}
			}
			line := res.line(sp, trace)
			if want := len(sp.metrics(trace)); len(line.Metrics) != want {
				t.Errorf("%s trace=%v: result line has %d metrics, catalogue lists %d", w.Name, trace, len(line.Metrics), want)
			}
			if !trace {
				continue
			}
			for name := range res.metrics {
				measured[name] = true
			}
			if res.metrics["driver.trace_overhead_share"].N == 0 {
				t.Errorf("%s: traced run did not report driver.trace_overhead_share", w.Name)
			}
			raw, err := os.ReadFile(traceOut)
			if err != nil {
				t.Fatalf("%s: span file: %v", w.Name, err)
			}
			var doc struct {
				Spans []span `json:"spans"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Spans) == 0 {
				t.Errorf("%s: span file holds %d spans (err %v)", w.Name, len(doc.Spans), err)
			}
			if w.Name == "ingest_fleet" || w.Name == "live_mixed" {
				e2e := res.metrics["fleet.e2e_ns_per_report"].Value
				sum := res.metrics["fleet.staged_sum_ns_per_report"].Value + res.metrics["fleet.unattributed_ns_per_report"].Value
				if !(e2e > 0) || math.Abs(sum-e2e) > 0.01*e2e {
					t.Errorf("%s: staged layers + unattributed = %v ns/report, end to end %v", w.Name, sum, e2e)
				}
				if share := res.metrics["driver.emit_share"].Value; !(share > 0 && share < 0.5) {
					t.Errorf("%s: driver.emit_share = %v", w.Name, share)
				}
			}
		}
	}
	for _, m := range sp.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s of BENCHMARK.json is measured by no workload", m.Name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(..., n=4) gives, since the driver's repeatability
// check is computed that way.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q2-5.5) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
