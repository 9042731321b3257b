package fleet

import (
	"context"
	"math"
	"testing"
	"time"

	"homesight/internal/background"
	"homesight/internal/corrsim"
	"homesight/internal/dominance"
	"homesight/internal/livestats"
	"homesight/internal/store"
	"homesight/internal/telemetry"
)

// TestFaultLiveShardKillReplay is the live-analytics half of the kill
// drill: with trackers on every shard, kill one mid-campaign and let
// the router's catch-up replay rebuild the dead shard's homes on the
// survivors. The /live answers must converge with the batch pipeline
// recomputed over the recovered partitions — the snapshots survived the
// kill because replay redelivers the durable history through the same
// watermark-guarded OnReport path the live stream used.
func TestFaultLiveShardKillReplay(t *testing.T) {
	root := t.TempDir()
	const minutes = 360
	f, err := Start(Config{
		Dir: root, Shards: 3, Start: anchor, Step: time.Minute,
		Sync: store.SyncAlways,
		// A reservoir larger than the campaign keeps the rank operator in
		// exact mode, so convergence is checked at float tolerance, not
		// sampling tolerance.
		Live: &livestats.Config{RankCap: minutes + 1, Seed: 11},
	})
	if err != nil {
		t.Fatalf("fleet.Start: %v", err)
	}
	r, err := NewRouter(RouterConfig{
		Shards:    f.Addrs(),
		BatchSize: 32,
		Replay:    f.ReplayFunc(),
		Reporter: telemetry.ReporterConfig{
			BaseBackoff: time.Millisecond,
			MaxBackoff:  8 * time.Millisecond,
			Window:      8,
		},
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	gateways := []string{"home-000", "home-001", "home-002", "home-003", "home-004", "home-005"}
	reps := buildCampaign(gateways, minutes)
	victim := r.ShardFor(gateways[0])
	victimIdx := shardIndex(t, victim)

	ctx := context.Background()
	killAt := len(reps) * 2 / 5
	for i, rep := range reps {
		if i == killAt {
			f.Kill(victimIdx)
		}
		if err := r.Send(ctx, rep); err != nil {
			t.Fatalf("Send report %d: %v", i, err)
		}
		// Mid-campaign, after the rebalance has settled, the fleet must
		// already serve the victim's home from a survivor's tracker.
		if i == len(reps)*4/5 {
			snap, ok := f.LiveSnapshot(gateways[0])
			if !ok {
				t.Fatal("no live snapshot for the reassigned gateway mid-campaign")
			}
			if snap.Reports == 0 {
				t.Fatal("mid-campaign snapshot is empty after replay")
			}
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

	// Every gateway is live (the union view), none lost to the kill.
	if got := f.LiveHomes(); len(got) != len(gateways) {
		t.Fatalf("LiveHomes = %v, want all %d gateways", got, len(gateways))
	}

	// Batch recomputation over the recovered partitions is the ground
	// truth for every snapshot.
	dirs, err := LivePartitions(root)
	if err != nil {
		t.Fatal(err)
	}
	offline := make(map[string]*livestats.HomeProfile)
	for _, dir := range dirs {
		st, err := store.Open(store.Config{Dir: dir})
		if err != nil {
			t.Fatalf("reopening partition %s: %v", dir, err)
		}
		for _, gw := range st.Gateways() {
			off, err := livestats.Offline(ctx, st, gw, corrsim.Measure{}, dominance.DefaultPhi)
			if err != nil {
				t.Fatalf("Offline(%s): %v", gw, err)
			}
			offline[gw] = off
		}
		if err := st.Close(); err != nil {
			t.Fatalf("closing partition %s: %v", dir, err)
		}
	}

	for _, gw := range gateways {
		snap, ok := f.LiveSnapshot(gw)
		if !ok {
			t.Errorf("%s: no live snapshot", gw)
			continue
		}
		off := offline[gw]
		if off == nil {
			t.Errorf("%s: not found in any recovered partition", gw)
			continue
		}
		if len(snap.Devices) != len(off.Details) {
			t.Errorf("%s: %d live devices, %d offline", gw, len(snap.Devices), len(off.Details))
			continue
		}
		thresholds := make(map[string]background.Threshold, len(off.Devices))
		for _, row := range off.Devices {
			thresholds[row.Device.MAC] = row.Threshold
		}
		for _, d := range snap.Devices {
			mac := d.Device.MAC
			det, found := off.Details[mac]
			if !found {
				t.Errorf("%s/%s: missing from offline details", gw, mac)
				continue
			}
			if math.Abs(d.Pearson.Coeff-det.Pearson.Coeff) > 1e-9 {
				t.Errorf("%s/%s: Pearson %v vs offline %v", gw, mac, d.Pearson.Coeff, det.Pearson.Coeff)
			}
			if d.Spearman.Coeff != det.Spearman.Coeff || d.Kendall.Coeff != det.Kendall.Coeff {
				t.Errorf("%s/%s: rank coefficients %v/%v vs offline %v/%v (exact mode must be bit-equal)",
					gw, mac, d.Spearman.Coeff, d.Kendall.Coeff, det.Spearman.Coeff, det.Kendall.Coeff)
			}
			if math.Abs(d.Similarity-det.Similarity) > 1e-9 {
				t.Errorf("%s/%s: similarity %v vs offline %v", gw, mac, d.Similarity, det.Similarity)
			}
			if th := thresholds[mac]; d.Threshold != th {
				t.Errorf("%s/%s: threshold %+v vs offline %+v", gw, mac, d.Threshold, th)
			}
		}
		// The φ-dominant sets agree exactly.
		liveDoms := make(map[string]bool)
		for _, d := range snap.Devices {
			if d.Dominant {
				liveDoms[d.Device.MAC] = true
			}
		}
		if len(liveDoms) != len(off.Dominance.Dominants) {
			t.Errorf("%s: %d live dominants, %d offline", gw, len(liveDoms), len(off.Dominance.Dominants))
		}
		for _, sc := range off.Dominance.Dominants {
			if !liveDoms[sc.Device.MAC] {
				t.Errorf("%s: offline dominant %s missing from live set", gw, sc.Device.MAC)
			}
		}
		// Traffic volume is an exact integer sum on both sides.
		for _, sc := range off.Dominance.All {
			for _, d := range snap.Devices {
				if d.Device.MAC != sc.Device.MAC {
					continue
				}
				if d.Traffic != sc.Traffic {
					t.Errorf("%s/%s: traffic %v vs offline %v", gw, sc.Device.MAC, d.Traffic, sc.Traffic)
				}
				if rel := math.Abs(d.Euclidean-sc.Euclidean) / math.Max(1, sc.Euclidean); rel > 1e-9 {
					t.Errorf("%s/%s: euclidean %v vs offline %v", gw, sc.Device.MAC, d.Euclidean, sc.Euclidean)
				}
			}
		}
	}
}
