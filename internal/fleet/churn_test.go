package fleet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"homesight/internal/gateway"
	"homesight/internal/livestats"
)

// churnCampaign emits a campaign in which devices join, leave and go
// dark, minute by minute. In fixed order every gateway lists its whole
// device pool in one order every minute, absent devices as NaN rows; with
// shuffle each minute lists only the present devices, shuffled, among a
// few dark rows, so row positions move every minute. Traffic is
// integer-valued, so the aggregate G sums exactly in any row order.
func churnCampaign(gateways []string, minutes int, shuffle bool) []gateway.Report {
	const pool = 8
	rng := rand.New(rand.NewSource(7))
	ems := make([]*gateway.Emitter, len(gateways))
	for i, gw := range gateways {
		ems[i] = gateway.NewEmitter(gw)
	}
	var reps []gateway.Report
	for m := 0; m < minutes; m++ {
		ts := anchor.Add(time.Duration(m) * time.Minute)
		for i := range gateways {
			var row []gateway.DeviceMinute
			for d := 0; d < pool; d++ {
				dm := gateway.DeviceMinute{
					MAC:  fmt.Sprintf("aa:bb:cc:00:%02x:%02x", i, d),
					Name: fmt.Sprintf("device-%d", d),
					// Bursty, device-specific and in step across devices, so
					// the live coefficients have something to measure.
					InBytes:  float64(100 + 13*d + (m*(d+1))%50 + 1000*(m/30%2)),
					OutBytes: float64(10 + (m+d)%7),
				}
				// Device 6 joins at minute 40 and device 7 leaves at minute 90;
				// every device drops out for a minute now and then.
				present := (m/7+3*d)%5 != 0 && !(d == 6 && m < 40) && !(d == 7 && m >= 90)
				switch {
				case !present && !shuffle:
					dm.InBytes, dm.OutBytes = math.NaN(), math.NaN()
				case !present:
					continue
				}
				row = append(row, dm)
			}
			if shuffle {
				for k := rng.Intn(3); k > 0; k-- {
					row = append(row, gateway.DeviceMinute{MAC: "dark", InBytes: math.NaN(), OutBytes: 1})
				}
				rng.Shuffle(len(row), func(a, b int) { row[a], row[b] = row[b], row[a] })
			}
			reps = append(reps, ems[i].Emit(ts, row))
		}
	}
	return reps
}

// TestShardChurnMatchesFixedOrder streams one campaign twice through a
// 1-shard fleet, once in a fixed device order and once with every
// gateway's device list shuffled, grown and shrunk between minutes. The
// store and the tracker resolve a row by its slot in the gateway's
// previous report, so the shuffled stream misses where the fixed one
// hits: both must leave the same raw points in the partition and the
// same live snapshot.
func TestShardChurnMatchesFixedOrder(t *testing.T) {
	gateways := []string{"home-000", "home-001", "home-002"}
	const minutes = 150
	type outcome struct {
		series map[string]string
		live   map[string]string
	}
	run := func(shuffle bool) outcome {
		root := t.TempDir()
		f, err := Start(Config{
			Dir: root, Shards: 1, Start: anchor, Step: time.Minute,
			Live: &livestats.Config{Start: anchor, Seed: 1},
		})
		if err != nil {
			t.Fatalf("fleet.Start: %v", err)
		}
		r, err := NewRouter(RouterConfig{Shards: f.Addrs(), BatchSize: 16})
		if err != nil {
			t.Fatalf("NewRouter: %v", err)
		}
		ctx := context.Background()
		for _, rep := range churnCampaign(gateways, minutes, shuffle) {
			if err := r.Send(ctx, rep); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		if err := r.Flush(ctx); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("router Close: %v", err)
		}
		if err := f.Drain(); err != nil {
			t.Fatalf("fleet Drain: %v", err)
		}
		var out outcome
		out.live = make(map[string]string)
		tr := f.Shard(0).tracker
		for _, gw := range gateways {
			snap, ok := tr.Snapshot(gw)
			if !ok {
				t.Fatalf("no live snapshot for %s", gw)
			}
			// %v prints every float in its shortest exact form, NaN included.
			out.live[gw] = fmt.Sprintf("%+v", *snap)
		}
		got, _ := mergePartitions(t, root)
		out.series = make(map[string]string, len(got))
		for k, pts := range got {
			out.series[fmt.Sprint(k)] = fmt.Sprint(pts)
		}
		return out
	}
	fixed, churned := run(false), run(true)
	if len(fixed.series) != len(gateways)*8*2 {
		t.Fatalf("fixed-order run stored %d series, want %d", len(fixed.series), len(gateways)*8*2)
	}
	for k, want := range fixed.series {
		if got := churned.series[k]; got != want {
			t.Errorf("series %s differs under churn:\n got %.200s\nwant %.200s", k, got, want)
		}
	}
	if len(churned.series) != len(fixed.series) {
		t.Errorf("churned run stored %d series, fixed order %d", len(churned.series), len(fixed.series))
	}
	for _, gw := range gateways {
		if got, want := churned.live[gw], fixed.live[gw]; got != want {
			t.Errorf("live snapshot of %s differs under churn:\n got %.400s\nwant %.400s", gw, got, want)
		}
	}
}
