// Command bench is homesight's one end-to-end benchmark: four
// deployment-shaped workloads driven through the system's public entry
// points, five end-to-end metrics per workload, and a traced run per
// workload that attributes the end-to-end figure to the layers.
// BENCHMARK.json (repository root) is the catalogue of names, units and
// regression bounds; README.md in this directory explains the choices.
//
//	go run ./bench                         # every workload, untraced + traced, one JSON record
//	go run ./bench -workload live_mixed    # one workload, one result line
//	go run ./bench -workload live_mixed -trace 1
//	go run ./bench -compare a.json b.json  # two records against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"homesight/internal/obs/slogx"
)

// defaultSeed is the synth deployment's own default master seed.
const defaultSeed = 20140317

// setupRepeats is how many times a workload's set-up runs; setup_s is
// the median, so one slow disk flush does not move it.
const setupRepeats = 3

// sample is one measured metric value and the number of observations
// behind it.
type sample struct {
	Value float64
	N     int
}

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// result is what one workload run measured.
type result struct {
	attempted, failed int64
	checks            []check
	metrics           map[string]sample
}

func (r *result) set(name string, v float64, n int) { r.metrics[name] = sample{v, n} }

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// runOptions selects and sizes one workload run.
type runOptions struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sc       scale
	// workdir receives the run's scratch directory and, by default, the
	// span file; testdata holds the checked-in analysis_suite digests.
	workdir, testdata, traceOut string
}

// run is the context of one workload run.
type run struct {
	runOptions
	// dir is this run's scratch directory (fleet roots, stores); it is
	// removed when the run ends.
	dir string
	// rec is nil on an untraced run.
	rec *recorder
	res *result
	log *slogx.Logger
}

func (r *run) traced() bool { return r.rec != nil }

// workloads maps the names of BENCHMARK.json to their implementations.
var workloads = map[string]func(context.Context, *run) error{
	"ingest_fleet":   runIngestFleet,
	"live_mixed":     runLiveMixed,
	"series_read":    runSeriesRead,
	"analysis_suite": runAnalysisSuite,
}

// setUp runs build setupRepeats times, discarding all but the last
// result, and records the median wall time as setup_s.
func setUp[T any](r *run, build func(rep int) (T, error), discard func(T) error) (T, error) {
	var last T
	var walls []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			if err := discard(last); err != nil {
				return last, fmt.Errorf("discarding set-up %d: %w", i, err)
			}
			// Let the next repetition reuse the discarded one's memory,
			// or peak_rss_mb would count the set-up three times.
			var zero T
			last = zero
			runtime.GC()
		}
		t0 := time.Now()
		v, err := build(i)
		if err != nil {
			return last, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		walls = append(walls, time.Since(t0).Seconds())
		last = v
	}
	r.res.set(mSetup, median(walls), len(walls))
	return last, nil
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runWorkload executes one workload in this process and returns what it
// measured. The scratch directory is removed on every path.
func runWorkload(ctx context.Context, sp *spec, o runOptions) (*result, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(sp.workloadNames(), ", "))
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	r := &run{
		runOptions: o, dir: dir,
		res: &result{metrics: make(map[string]sample)},
		log: slogx.With("workload", o.workload, "seed", o.seed),
	}
	if o.trace {
		r.rec = newRecorder()
	}
	if err := fn(ctx, r); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if o.trace {
		traceOut := o.traceOut
		if traceOut == "" {
			traceOut = filepath.Join(o.workdir, "trace-"+o.workload+".json")
		}
		if err := r.rec.write(traceOut, o.workload, o.seed); err != nil {
			return nil, err
		}
		r.log.Info("span file written", "path", traceOut, "spans", r.rec.count())
		for name, self := range r.rec.selfTimes() {
			r.log.Info("span self time", "span", name, "seconds", self.Seconds())
		}
	}
	for _, c := range r.res.checks {
		if c.OK {
			r.log.Info("check passed", "check", c.Name, "detail", c.Detail)
		} else {
			r.log.Error("check FAILED", "check", c.Name, "detail", c.Detail)
		}
	}
	return r.res, checkNames(sp, r.res)
}

// checkNames rejects a run that measured a metric BENCHMARK.json does
// not declare, or left an end-to-end metric unmeasured: the catalogue
// and the code must not drift. (Per-layer metrics a workload does not
// exercise are legitimately absent and print as 0.)
func checkNames(sp *spec, res *result) error {
	declared := make(map[string]bool)
	for _, m := range sp.EndToEnd {
		declared[m.Name] = true
		if _, ok := res.metrics[m.Name]; !ok {
			return fmt.Errorf("end-to-end metric %q was not measured", m.Name)
		}
	}
	for _, m := range sp.PerLayer {
		declared[m.Name] = true
	}
	var stray []string
	for name := range res.metrics {
		if !declared[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return fmt.Errorf("measured metrics missing from BENCHMARK.json: %s", strings.Join(stray, ", "))
	}
	return nil
}

// resultLine is the one-line contract output of a single run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (res *result) line(sp *spec, trace bool) resultLine {
	out := resultLine{
		Correct: res.correct(), Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue),
	}
	for _, m := range sp.metrics(trace) {
		out.Metrics[m.Name] = metricValue{Value: res.metrics[m.Name].Value, Unit: m.Unit}
	}
	return out
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print its result line (default: run the whole set)")
		seed     = flag.Int64("seed", defaultSeed, "seed of the synthetic deployment and of the request mix")
		seconds  = flag.Float64("seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = traced run: record spans, run the staged replay, print the per-layer metrics")
		traceOut = flag.String("trace-out", "", "span file of a traced run (default: <workdir>/trace-<workload>.json)")
		specPath = flag.String("spec", "BENCHMARK.json", "the benchmark catalogue")
		workdir  = flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for fleet roots and stores")
		testdata = flag.String("testdata", filepath.Join("bench", "testdata"), "directory of the checked-in analysis_suite digest")
		runs     = flag.Int("runs", 1, "run set: untraced runs per workload, each with the next seed")
		out      = flag.String("out", "", "run set: also write the JSON record to this file")
		detailTo = flag.String("detail", "", "also write observation counts and checks to this file (the run set uses it)")
		compare  = flag.Bool("compare", false, "compare two run-set records (two file arguments) against the bounds")
	)
	flag.Parse()
	log := slogx.With("component", "bench")

	sp, err := loadSpec(*specPath)
	if err != nil {
		log.Fatal("no benchmark catalogue (run from the repository root)", "err", err)
	}
	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("-compare takes two record files")
		}
		ok, err := compareRecords(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
		if err != nil {
			log.Fatal("compare failed", "err", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	ctx := context.Background()
	if *workload == "" {
		ok, err := runSet(ctx, sp, setOptions{
			seed: *seed, seconds: *seconds, runs: *runs, out: *out,
			workdir: *workdir, testdata: *testdata, specPath: *specPath,
		})
		if err != nil {
			log.Fatal("run set failed", "err", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	res, err := runWorkload(ctx, sp, runOptions{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, sc: defaultScale,
		workdir: *workdir, testdata: *testdata, traceOut: *traceOut,
	})
	if err != nil {
		log.Fatal("run failed", "err", err)
	}
	if *detailTo != "" {
		if err := writeDetail(*detailTo, res); err != nil {
			log.Fatal("writing detail", "err", err)
		}
	}
	line, err := json.Marshal(res.line(sp, *trace == 1))
	if err != nil {
		log.Fatal("encoding result", "err", err)
	}
	fmt.Println(string(line))
	if !res.correct() {
		os.Exit(1)
	}
}
