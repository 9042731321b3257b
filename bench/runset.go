package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// detail is what a child run hands back to the run set beside its
// result line: observation counts and the named checks.
type detail struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Checks    []check           `json:"checks"`
	Metrics   map[string]sample `json:"metrics"`
}

func (res *result) detail() detail {
	return detail{res.correct(), res.attempted, res.failed, res.checks, res.metrics}
}

func writeDetail(path string, res *result) error {
	raw, err := json.Marshal(res.detail())
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// recordMetric is one metric of a run-set record.
type recordMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Values are the untraced runs' values (Value is their median) and
	// Spread their interquartile distance over the median.
	Values []float64 `json:"values,omitempty"`
	Spread float64   `json:"spread,omitempty"`
}

// traceDelta lays a traced run's end-to-end figure beside the untraced
// median: what tracing itself cost.
type traceDelta struct {
	Name     string  `json:"name"`
	Untraced float64 `json:"untraced"`
	Traced   float64 `json:"traced"`
	Share    float64 `json:"share"`
}

type recordWorkload struct {
	Name           string         `json:"name"`
	Correct        bool           `json:"correct"`
	Attempted      int64          `json:"attempted"`
	Failed         int64          `json:"failed"`
	FailedOpsShare float64        `json:"failed_ops_share"`
	Checks         []check        `json:"checks"`
	EndToEnd       []recordMetric `json:"end_to_end"`
	PerLayer       []recordMetric `json:"per_layer"`
	TraceDelta     []traceDelta   `json:"trace_delta"`
}

type recordEnv struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"commit"`
	SyncPolicy string  `json:"sync_policy"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs"`
	Scale      string  `json:"scale"`
}

// record is the JSON document of one run set.
type record struct {
	Env       recordEnv        `json:"env"`
	Workloads []recordWorkload `json:"workloads"`
}

type setOptions struct {
	seed     int64
	seconds  float64
	runs     int
	out      string
	workdir  string
	testdata string
	specPath string
}

// child runs one workload in a fresh process — RSS, GC state and page
// cache of one workload must not leak into the next — and returns its
// detail.
func child(ctx context.Context, o setOptions, workload string, seed int64, trace bool) (detail, error) {
	var d detail
	self, err := os.Executable()
	if err != nil {
		return d, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return d, err
	}
	detailPath := filepath.Join(o.workdir, fmt.Sprintf("detail-%s-%d.json", workload, os.Getpid()))
	defer func() { _ = os.Remove(detailPath) }()
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.CommandContext(ctx, self,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "-trace", t,
		"-spec", o.specPath, "-workdir", o.workdir, "-testdata", o.testdata, "-detail", detailPath)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	runErr := cmd.Run()
	raw, err := os.ReadFile(detailPath)
	if err != nil {
		if runErr != nil {
			return d, fmt.Errorf("%s (seed %d, trace %s): %w", workload, seed, t, runErr)
		}
		return d, err
	}
	return d, json.Unmarshal(raw, &d)
}

func gitCommit(ctx context.Context) string {
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runSet runs every workload of the catalogue — o.runs untraced child
// processes with consecutive seeds, then one traced — and prints one
// JSON record. It reports false when any run was incorrect.
func runSet(ctx context.Context, sp *spec, o setOptions) (bool, error) {
	rec := record{Env: recordEnv{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit:     gitCommit(ctx),
		SyncPolicy: "fleet shards: SyncInterval (group commit); series_read load: SyncNever",
		Seed:       o.seed, Seconds: o.seconds, Runs: o.runs,
		Scale: fmt.Sprintf("%+v", defaultScale),
	}}
	allCorrect := true
	for _, w := range sp.Workloads {
		rw := recordWorkload{Name: w.Name, Correct: true}
		var untraced []detail
		for i := 0; i < o.runs; i++ {
			d, err := child(ctx, o, w.Name, o.seed+int64(i), false)
			if err != nil {
				return false, err
			}
			untraced = append(untraced, d)
		}
		traced, err := child(ctx, o, w.Name, o.seed, true)
		if err != nil {
			return false, err
		}
		for _, d := range append(untraced, traced) {
			rw.Correct = rw.Correct && d.Correct
			rw.Attempted += d.Attempted
			rw.Failed += d.Failed
			for _, c := range d.Checks {
				if !c.OK {
					rw.Checks = append(rw.Checks, c)
				}
			}
		}
		if len(rw.Checks) == 0 {
			rw.Checks = untraced[0].Checks
		}
		rw.FailedOpsShare = float64(rw.Failed) / float64(rw.Attempted)
		for _, m := range sp.EndToEnd {
			rm := recordMetric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
			for _, d := range untraced {
				rm.Values = append(rm.Values, d.Metrics[m.Name].Value)
				rm.N += d.Metrics[m.Name].N
			}
			rm.Value = median(rm.Values)
			if len(rm.Values) > 1 {
				_, rm.Value, _ = quartiles(rm.Values)
				rm.Spread = spread(rm.Values)
			}
			rw.EndToEnd = append(rw.EndToEnd, rm)
			if tv, ok := traced.Metrics[m.Name]; ok && math.Abs(rm.Value) > 0 {
				rw.TraceDelta = append(rw.TraceDelta, traceDelta{m.Name, rm.Value, tv.Value, (tv.Value - rm.Value) / rm.Value})
			}
		}
		for _, m := range sp.PerLayer {
			if s, ok := traced.Metrics[m.Name]; ok {
				rw.PerLayer = append(rw.PerLayer, recordMetric{Name: m.Name, Unit: m.Unit, Value: s.Value, N: s.N, Better: m.Better})
			}
		}
		allCorrect = allCorrect && rw.Correct
		rec.Workloads = append(rec.Workloads, rw)
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return false, err
	}
	raw = append(raw, '\n')
	if o.out != "" {
		if err := os.WriteFile(o.out, raw, 0o644); err != nil {
			return false, err
		}
	}
	_, err = os.Stdout.Write(raw)
	return allCorrect, err
}

func readRecord(path string) (*record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// compareRecords prints, per workload and end-to-end metric, both
// records' values, their relative difference and the bound, and reports
// false when any pair differs by more than its bound in either
// direction (run on one commit twice, that is the repeatability check;
// run on a parent and a change, the "worse" rows are the regressions)
// or when a record's own runs spread wider than the bound — set-up time
// excepted, as in the driver's acceptance rule.
func compareRecords(w io.Writer, sp *spec, pathA, pathB string) (bool, error) {
	a, err := readRecord(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecord(pathB)
	if err != nil {
		return false, err
	}
	find := func(rec *record, workload, metric string) (recordMetric, bool) {
		for _, rw := range rec.Workloads {
			if rw.Name != workload {
				continue
			}
			for _, m := range rw.EndToEnd {
				if m.Name == metric {
					return m, true
				}
			}
		}
		return recordMetric{}, false
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tdiff\tbound\tspread a\tspread b\tverdict")
	ok := true
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			ma, okA := find(a, wl.Name, m.Name)
			mb, okB := find(b, wl.Name, m.Name)
			base := math.Abs(ma.Value)
			if !okA || !okB || !(base > 0) {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t%.2f\t-\t-\tMISSING\n", wl.Name, m.Name, m.Unit, m.Bound)
				ok = false
				continue
			}
			diff := (mb.Value - ma.Value) / base
			verdict := "within"
			if m.Name != mSetup && (ma.Spread > m.Bound || mb.Spread > m.Bound) {
				ok = false
				verdict = "UNSTEADY"
			}
			if math.Abs(diff) > m.Bound {
				ok = false
				verdict = "b WORSE"
				if (diff < 0) == (m.Better == "lower") {
					verdict = "b BETTER"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				wl.Name, m.Name, m.Unit, ma.Value, mb.Value, 100*diff, 100*m.Bound, 100*ma.Spread, 100*mb.Spread, verdict)
		}
	}
	return ok, tw.Flush()
}
