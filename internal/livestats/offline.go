package livestats

import (
	"context"
	"time"

	"homesight/internal/background"
	"homesight/internal/corrsim"
	"homesight/internal/dominance"
	"homesight/internal/store"
)

// Rebuild warms the tracker from a store's durable history: every
// gateway's reports are reconstructed in ascending order and fed
// through OnReport. Because the tracker's per-device watermarks mirror
// the store's WAL watermarks, a rebuild followed by live redelivery of
// in-flight reports converges on the same state the tracker would have
// reached watching the stream from the start — this is how snapshots
// survive a collector restart or a shard kill + catch-up replay. It
// returns the number of reports replayed.
func (t *Tracker) Rebuild(ctx context.Context, st *store.Store) (int, error) {
	fed := 0
	for _, gw := range st.Gateways() {
		reps, err := st.ReconstructReports(ctx, gw)
		if err != nil {
			return fed, err
		}
		for _, rep := range reps {
			t.OnReport(rep)
			fed++
		}
	}
	return fed, nil
}

// OfflineHome is the batch recomputation of one home's live answers —
// the ground truth the reconciliation tests (and `homesight collector
// -demo -live`) hold snapshots against.
type OfflineHome struct {
	// Dominance is the Definition 4 result over the reconstructed
	// series.
	Dominance dominance.Result
	// Details holds each device's Definition 1 coefficient detail,
	// keyed by MAC: the Score.Detail of Dominance, all three
	// coefficients with Similarity under the measure Offline was given.
	Details map[string]corrsim.Detail
	// Thresholds holds each device's Sec. 6.1 per-direction whisker
	// estimates, keyed by MAC.
	Thresholds map[string]background.Threshold
	// Minutes is the campaign grid length the series were padded to.
	Minutes int
}

// Offline recomputes one gateway's analysis from a store with the
// batch pipeline: the store's one read of the home (store.Home), one
// dominance.Detector pass and background.EstimateThreshold — exactly the
// offline implementations the online operators mirror.
func Offline(ctx context.Context, st *store.Store, gw string, m corrsim.Measure, phi float64) (*OfflineHome, error) {
	home, err := st.Home(ctx, gw, time.Time{})
	if err != nil {
		return nil, err
	}
	out := &OfflineHome{
		Details:    make(map[string]corrsim.Detail),
		Thresholds: make(map[string]background.Threshold),
	}
	if len(home.Devices) == 0 {
		return out, nil
	}
	devSeries := make([]dominance.DeviceSeries, len(home.Devices))
	for k, d := range home.Devices {
		devSeries[k] = dominance.DeviceSeries{Device: d.Device, Series: d.Overall()}
		out.Thresholds[d.Device.MAC] = background.EstimateThreshold(d.In, d.Out)
	}
	out.Minutes = home.Overall.Len()
	out.Dominance = dominance.Detector{Measure: m, Phi: phi}.Detect(home.Overall, devSeries)
	for _, sc := range out.Dominance.All {
		out.Details[sc.Device.MAC] = sc.Detail
	}
	return out, nil
}
