package livestats

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"homesight/internal/gateway"
)

// benchStream produces minute reports for one home with devs devices,
// cumulative counters advancing by pseudo-random per-minute increments
// — the emitter shape without the synth scaffolding.
type benchStream struct {
	start  time.Time
	devs   []gateway.DeviceCounters
	rng    *rand.Rand
	minute int
}

func newBenchStream(devs int) *benchStream {
	bs := &benchStream{
		start: time.Date(2014, time.March, 17, 0, 0, 0, 0, time.UTC),
		rng:   rand.New(rand.NewSource(1887)),
	}
	for d := 0; d < devs; d++ {
		bs.devs = append(bs.devs, gateway.DeviceCounters{
			MAC:  fmt.Sprintf("aa:bb:cc:dd:ee:%02x", d),
			Name: fmt.Sprintf("device-%02d", d),
		})
	}
	return bs
}

func (bs *benchStream) next() gateway.Report {
	for d := range bs.devs {
		bs.devs[d].RxBytes += uint64(bs.rng.Intn(4000))
		bs.devs[d].TxBytes += uint64(bs.rng.Intn(1500))
	}
	rep := gateway.Report{
		GatewayID: "gw-bench",
		Timestamp: bs.start.Add(time.Duration(bs.minute) * time.Minute),
		Devices:   append([]gateway.DeviceCounters(nil), bs.devs...),
	}
	bs.minute++
	return rep
}

func (bs *benchStream) tracker() *Tracker {
	return NewTracker(Config{Start: bs.start, Seed: 99})
}

// BenchmarkOnReport measures the steady-state per-report operator cost
// (8 devices per report, default sketch capacities).
func BenchmarkOnReport(b *testing.B) {
	bs := newBenchStream(8)
	tr := bs.tracker()
	reps := make([]gateway.Report, b.N)
	for i := range reps {
		reps[i] = bs.next()
	}
	b.ResetTimer()
	for i := range reps {
		tr.OnReport(reps[i])
	}
}

// BenchmarkSnapshot measures assembling one home's live analysis after
// a stream long enough to put both sketches in sketch mode, with no
// report between snapshots: every device is clean, so the rank memo
// answers and the cost is the O(devices) read-out.
func BenchmarkSnapshot(b *testing.B) {
	bs := newBenchStream(8)
	tr := bs.tracker()
	for i := 0; i < DefaultQuantCap+DefaultRankCap; i++ {
		tr.OnReport(bs.next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tr.Snapshot("gw-bench"); !ok {
			b.Fatal("home vanished")
		}
	}
}

// benchWindow feeds n reports from bs into tr and returns the mean
// per-report cost.
func benchWindow(tr *Tracker, bs *benchStream, n int) time.Duration {
	reps := make([]gateway.Report, n)
	for i := range reps {
		reps[i] = bs.next()
	}
	start := time.Now()
	for i := range reps {
		tr.OnReport(reps[i])
	}
	return time.Since(start) / time.Duration(n)
}

func benchStreamPercentile(ds []time.Duration, p float64) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// TestBenchStreamJSON writes BENCH_stream.json — steady-state
// per-report operator cost at two stream depths (the bounded ratio is
// the O(1) evidence: cost must not grow with stream length) and
// snapshot latency percentiles — when HOMESIGHT_BENCH_STREAM_JSON is
// set. It is the `make bench-stream` artifact.
func TestBenchStreamJSON(t *testing.T) {
	path := os.Getenv("HOMESIGHT_BENCH_STREAM_JSON")
	if path == "" {
		t.Skip("set HOMESIGHT_BENCH_STREAM_JSON=BENCH_stream.json to write the bench artifact")
	}
	const (
		devs   = 8
		window = 4096
		deep   = 16 * DefaultRankCap // well past every sketch capacity
	)
	bs := newBenchStream(devs)
	tr := bs.tracker()

	// Early window: the first `window` minutes (operators in exact mode).
	early := benchWindow(tr, bs, window)
	// Burn to depth, then measure again: operators in sketch mode with
	// 16x the history behind them.
	for bs.minute < deep {
		tr.OnReport(bs.next())
	}
	late := benchWindow(tr, bs, window)
	ratio := float64(late) / float64(early)

	// A per-report cost that grows with stream length would blow this
	// bound immediately (the stream is 16x deeper); 3x headroom absorbs
	// timer noise and the exact→sketch mode change.
	if ratio > 3.0 {
		t.Errorf("per-report cost grew with stream depth: early %v, late %v (ratio %.2f > 3.0)", early, late, ratio)
	}

	const snaps = 500
	lat := make([]time.Duration, snaps)
	for i := range lat {
		start := time.Now()
		if _, ok := tr.Snapshot("gw-bench"); !ok {
			t.Fatal("home vanished")
		}
		lat[i] = time.Since(start)
	}

	entries := []map[string]any{
		{
			"name":               "LiveOnReport",
			"devices_per_report": devs,
			"window_reports":     window,
			"early_ns_per_op":    early.Nanoseconds(),
			"late_ns_per_op":     late.Nanoseconds(),
			"late_stream_depth":  deep,
			"late_early_ratio":   ratio,
			"rank_cap":           DefaultRankCap,
			"quant_cap":          DefaultQuantCap,
		},
		{
			"name":           "LiveSnapshot",
			"devices":        devs,
			"samples":        snaps,
			"p50_us":         float64(benchStreamPercentile(lat, 0.50).Nanoseconds()) / 1e3,
			"p99_us":         float64(benchStreamPercentile(lat, 0.99).Nanoseconds()) / 1e3,
			"stream_depth":   bs.minute,
			"rank_sampled":   true,
			"quant_sketched": true,
		},
	}
	raw, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("per-report: early %v, late %v (ratio %.2f); snapshot p99 %v", early, late, ratio, benchStreamPercentile(lat, 0.99))
}
