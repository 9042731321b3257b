package livestats

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"homesight/internal/gateway"
	"homesight/internal/synth"
)

// memoConfig puts the RankCap boundary well inside the stream prefixes
// the memo tests feed, so they cross from the exact reservoir into
// Algorithm R replacement, where most reports leave most reservoirs — and
// so their generations — untouched.
func memoConfig(dep *synth.Deployment) Config {
	return Config{Start: dep.Config().Start, RankCap: 96, Seed: 3}
}

// sameSnapshot is reflect.DeepEqual for snapshots, except that a NaN
// coefficient equals itself: %v prints every float in its shortest
// round-tripping form, so equal text means equal values.
func sameSnapshot(a, b *HomeSnapshot) bool {
	return fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b)
}

// faultyStream interleaves duplicates and stale redeliveries into reps.
func faultyStream(rng *rand.Rand, reps []gateway.Report) []gateway.Report {
	var out []gateway.Report
	for i, rep := range reps {
		out = append(out, rep)
		if rng.Float64() < 0.1 {
			out = append(out, rep)
		}
		if i > 0 && rng.Float64() < 0.1 {
			out = append(out, reps[rng.Intn(i)])
		}
	}
	return out
}

// TestSnapshotMemoMatchesUnsnapshottedTwin is the memo's correctness
// property: however often a tracker is snapshotted along the way —
// after every report, after every k-th, twice with nothing in between —
// its final snapshot equals that of a twin fed the same stream and
// snapshotted once, at the end.
func TestSnapshotMemoMatchesUnsnapshottedTwin(t *testing.T) {
	dep := testDeployment(t)
	all := campaignReports(dep, 0)
	gw := dep.Home(0).ID
	for trial, prefix := range []int{40, 96, 97, 150, 700, 1500} {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		stream := faultyStream(rng, all[:prefix])
		memo, twin := NewTracker(memoConfig(dep)), NewTracker(memoConfig(dep))
		k := 1 // every other trial snapshots after every report
		if trial%2 == 1 {
			k += rng.Intn(25)
		}
		snapshots := 0
		for i, rep := range stream {
			memo.OnReport(rep)
			twin.OnReport(rep)
			if i%k != 0 {
				continue
			}
			first, _ := memo.Snapshot(gw)
			snapshots++
			if rng.Intn(4) == 0 {
				// No report in between: the memo answers for every device.
				again, _ := memo.Snapshot(gw)
				if !sameSnapshot(first, again) {
					t.Fatalf("prefix %d: back-to-back snapshots differ at report %d", prefix, i)
				}
			}
		}
		got, _ := memo.Snapshot(gw)
		want, ok := twin.Snapshot(gw)
		if !ok || !sameSnapshot(got, want) {
			t.Errorf("prefix %d, k=%d, %d snapshots on the way:\n got %+v\nwant %+v", prefix, k, snapshots, got, want)
		}
		if prefix > 200 && !want.Devices[0].RankSampled {
			t.Errorf("prefix %d never crossed the RankCap boundary", prefix)
		}
	}
}

// TestSnapshotMemoConcurrentWithIngest polls snapshots from a second
// goroutine while reports arrive (the race detector watches the memo),
// then holds the final snapshot to the unsnapshotted twin's.
func TestSnapshotMemoConcurrentWithIngest(t *testing.T) {
	dep := testDeployment(t)
	reps := campaignReports(dep, 0)[:1200]
	gw := dep.Home(0).ID
	memo, twin := NewTracker(memoConfig(dep)), NewTracker(memoConfig(dep))
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				memo.Snapshot(gw)
			}
		}
	}()
	for _, rep := range reps {
		memo.OnReport(rep)
		twin.OnReport(rep)
	}
	close(done)
	wg.Wait()
	got, _ := memo.Snapshot(gw)
	want, _ := twin.Snapshot(gw)
	if !sameSnapshot(got, want) {
		t.Errorf("snapshot after concurrent polling diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestStaleRowsLeaveGenerationAlone: a row dropped at the watermark never
// reaches the reservoir, so it must not make the device look dirty.
func TestStaleRowsLeaveGenerationAlone(t *testing.T) {
	dep := testDeployment(t)
	reps := campaignReports(dep, 0)[:300]
	gw := dep.Home(0).ID
	tr := NewTracker(memoConfig(dep))
	for _, rep := range reps {
		tr.OnReport(rep)
	}
	generations := func() map[string]uint64 {
		out := make(map[string]uint64)
		for mac, ds := range tr.homes[gw].devs {
			out[mac] = ds.ranks.Generation()
		}
		return out
	}
	before := generations()
	staleBefore := tr.cfg.Metrics.Stale.Value()
	for _, i := range []int{299, 0, 150, 298, 299} {
		tr.OnReport(reps[i])
	}
	if tr.cfg.Metrics.Stale.Value() == staleBefore {
		t.Fatal("redelivery produced no stale rows")
	}
	for mac, gen := range generations() {
		if gen != before[mac] {
			t.Errorf("device %s: generation %d → %d on stale rows", mac, before[mac], gen)
		}
	}
}

// TestSnapshotMemoAfterRebuild: a tracker warmed from the store,
// snapshotted, fed a stale tail and snapshotted again agrees with a
// rebuilt twin snapshotted only at the end.
func TestSnapshotMemoAfterRebuild(t *testing.T) {
	dep := testDeployment(t)
	reps := campaignReports(dep, 0)[:600]
	gw := dep.Home(0).ID
	st := storeFromReports(t, dep, reps)
	memo, twin := NewTracker(memoConfig(dep)), NewTracker(memoConfig(dep))
	for _, tr := range []*Tracker{memo, twin} {
		if _, err := tr.Rebuild(context.Background(), st); err != nil {
			t.Fatal(err)
		}
	}
	warm, _ := memo.Snapshot(gw)
	for _, rep := range reps[len(reps)-50:] {
		memo.OnReport(rep)
		twin.OnReport(rep)
		memo.Snapshot(gw)
	}
	got, _ := memo.Snapshot(gw)
	want, _ := twin.Snapshot(gw)
	if !sameSnapshot(got, want) {
		t.Errorf("snapshot after rebuild + stale tail diverged:\n got %+v\nwant %+v", got, want)
	}
	// The tail was all stale rows: only the report count may have moved.
	warm.Reports = got.Reports
	if !sameSnapshot(warm, got) {
		t.Errorf("stale tail changed the analysis:\nbefore %+v\n after %+v", warm, got)
	}
}

// TestSnapshotUnchangedHomeAllocatesOnlyItsResult: with every device
// clean the rank kernel does not run, and nothing is allocated beyond the
// HomeSnapshot and its device rows.
func TestSnapshotUnchangedHomeAllocatesOnlyItsResult(t *testing.T) {
	dep := testDeployment(t)
	reps := campaignReports(dep, 0)[:400]
	gw := dep.Home(0).ID
	tr := NewTracker(memoConfig(dep))
	for _, rep := range reps {
		tr.OnReport(rep)
	}
	tr.Snapshot(gw)
	if a := testing.AllocsPerRun(50, func() { tr.Snapshot(gw) }); a > 2 {
		t.Errorf("unchanged-home Snapshot allocates %v times, want 2 (the HomeSnapshot and its Devices)", a)
	}
}
