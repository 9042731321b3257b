package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"homesight/internal/store"
	"homesight/internal/telemetry"
)

// benchFleet assembles N shards by hand (not via Start) so the bench
// can plant the unexported onFrame hook and measure exact per-frame
// ingest latency at the shard, not round-trip latency at the driver.
type benchFleet struct {
	shards []*Shard
	addrs  []ShardAddr

	mu      sync.Mutex
	perRep  []time.Duration // per-frame append duration / reports, one sample per report
	reports int64
}

func startBenchFleet(t *testing.T, n int) *benchFleet {
	t.Helper()
	bf := &benchFleet{}
	root := t.TempDir()
	for i := 0; i < n; i++ {
		i := i
		s, err := StartShard(ShardConfig{
			Name:  ShardName(i),
			Addr:  "127.0.0.1:0",
			Dir:   PartitionDir(root, i),
			Start: anchor,
			Step:  time.Minute,
			Sync:  store.SyncNever, // measure the pipeline, not fsync
			onFrame: func(reports int, d time.Duration) {
				if reports == 0 {
					return
				}
				per := d / time.Duration(reports)
				bf.mu.Lock()
				for r := 0; r < reports; r++ {
					bf.perRep = append(bf.perRep, per)
				}
				bf.reports += int64(reports)
				bf.mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		bf.shards = append(bf.shards, s)
		bf.addrs = append(bf.addrs, ShardAddr{Name: s.Name(), Addr: s.Addr()})
	}
	return bf
}

func (bf *benchFleet) drain(t *testing.T) {
	t.Helper()
	for _, s := range bf.shards {
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
	}
}

func benchPercentile(lat []time.Duration, p float64) time.Duration {
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[int(p*float64(len(sorted)-1))]
}

// runFleetLoad drives `drivers` goroutines, each with its own Router
// over the same fleet (one router per ingest frontend, the deployment
// shape), sending disjoint gateway sets. Returns wall-clock seconds.
func runFleetLoad(t *testing.T, bf *benchFleet, drivers, gatewaysPerDriver, minutes, batch int) float64 {
	t.Helper()
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, drivers)
	start := time.Now()
	for d := 0; d < drivers; d++ {
		gws := make([]string, gatewaysPerDriver)
		for g := range gws {
			gws[g] = fmt.Sprintf("home-%03d", d*gatewaysPerDriver+g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := NewRouter(RouterConfig{Shards: bf.addrs, BatchSize: batch})
			if err != nil {
				errs <- err
				return
			}
			for _, rep := range buildCampaign(gws, minutes) {
				if err := r.Send(ctx, rep); err != nil {
					errs <- err
					return
				}
			}
			if err := r.Flush(ctx); err != nil {
				errs <- err
				return
			}
			errs <- r.Close()
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return wall
}

// TestBenchFleetJSON writes BENCH_fleet.json — aggregate acked ingest
// throughput and p99 per-report shard append latency at 1, 2 and 4
// shards under 4 concurrent router frontends — when
// HOMESIGHT_BENCH_FLEET_JSON is set. It is the `make bench-fleet`
// artifact. The 4-shard/1-shard ratio is recorded with the host's CPU
// count, not gated: below 4 cores the shards share cycles and the ratio
// measures the scheduler, not the fleet.
func TestBenchFleetJSON(t *testing.T) {
	path := os.Getenv("HOMESIGHT_BENCH_FLEET_JSON")
	if path == "" {
		t.Skip("set HOMESIGHT_BENCH_FLEET_JSON=BENCH_fleet.json to write the bench artifact")
	}
	const (
		drivers           = 4
		gatewaysPerDriver = 2
		minutes           = 600
		batch             = 64
	)
	total := int64(drivers * gatewaysPerDriver * minutes)
	rps := make(map[int]float64)
	entries := []map[string]any{}
	for _, n := range []int{1, 2, 4} {
		bf := startBenchFleet(t, n)
		wall := runFleetLoad(t, bf, drivers, gatewaysPerDriver, minutes, batch)
		bf.drain(t)
		if bf.reports != total {
			t.Fatalf("%d shards: %d reports ingested, want %d", n, bf.reports, total)
		}
		rps[n] = float64(total) / wall
		entries = append(entries, map[string]any{
			"name":               fmt.Sprintf("FleetIngest%dShard", n),
			"shards":             n,
			"routers":            drivers,
			"reports":            total,
			"batch_size":         batch,
			"window":             telemetry.DefaultBatchWindow,
			"reports_per_sec":    rps[n],
			"append_p50_us":      float64(benchPercentile(bf.perRep, 0.50)) / 1e3,
			"append_p99_us":      float64(benchPercentile(bf.perRep, 0.99)) / 1e3,
			"wall_seconds":       wall,
			"devices_per_report": 2,
		})
		t.Logf("%d shards: %.0f reports/s, append p99 %.1fµs",
			n, rps[n], float64(benchPercentile(bf.perRep, 0.99))/1e3)
	}
	entries = append(entries, map[string]any{
		"name":        "FleetScaling",
		"speedup_4v1": rps[4] / rps[1],
		"num_cpu":     runtime.NumCPU(),
		"sync":        "SyncNever",
		"corpus":      fmt.Sprintf("%d gateways x %d minutes x 2 devices", drivers*gatewaysPerDriver, minutes),
	})
	raw, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
