package livestats

import (
	"context"

	"homesight/internal/background"
	"homesight/internal/corrsim"
	"homesight/internal/devices"
	"homesight/internal/dominance"
	"homesight/internal/store"
	"homesight/internal/timeseries"
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
// the ground truth the reconciliation tests (and cmd/homesim -live)
// hold snapshots against.
type OfflineHome struct {
	// Dominance is the Definition 4 result over the reconstructed
	// series.
	Dominance dominance.Result
	// Details holds each device's Definition 1 coefficient detail,
	// keyed by MAC.
	Details map[string]corrsim.Detail
	// Thresholds holds each device's Sec. 6.1 per-direction whisker
	// estimates, keyed by MAC.
	Thresholds map[string]background.Threshold
	// Minutes is the campaign grid length the series were padded to.
	Minutes int
}

// Offline recomputes one gateway's analysis from a store with the
// batch pipeline: per-device series reconstruction, the NaN-skipping
// aggregate sum, dominance.Detector and background.EstimateThreshold —
// exactly the offline implementations the online operators mirror.
func Offline(ctx context.Context, st *store.Store, gw string, m corrsim.Measure, phi float64) (*OfflineHome, error) {
	out := &OfflineHome{
		Details:    make(map[string]corrsim.Detail),
		Thresholds: make(map[string]background.Threshold),
	}
	var overall *timeseries.Series
	var devSeries []dominance.DeviceSeries
	for _, mac := range st.Devices(gw) {
		var res [2]*store.Result
		for dir := 0; dir < 2; dir++ {
			var err error
			res[dir], err = st.Query(ctx, store.QueryRequest{
				Key:         store.Key{Gateway: gw, Device: mac, Dir: store.Direction(dir)},
				Reconstruct: true,
			})
			if err != nil {
				return nil, err
			}
		}
		if res[0].LastIndex < 0 && res[1].LastIndex < 0 {
			continue // cataloged but no samples survived
		}
		devOverall, err := res[0].Series.Add(res[1].Series)
		if err != nil {
			return nil, err // unreachable: both series share the campaign grid
		}
		name := st.DeviceName(gw, mac)
		devSeries = append(devSeries, dominance.DeviceSeries{
			Device: devices.Device{MAC: mac, Name: name, Inferred: devices.Classify(mac, name)},
			Series: devOverall,
		})
		out.Thresholds[mac] = background.EstimateThreshold(res[0].Series, res[1].Series)
		if overall == nil {
			overall = devOverall.Clone()
		} else if overall, err = overall.Add(devOverall); err != nil {
			return nil, err
		}
	}
	if overall == nil {
		return out, nil
	}
	out.Minutes = overall.Len()
	// One Detailed per device backs both the detail map and, through
	// the Similarity hook, the detector — so the similarity the result
	// ranks by is bit-identical to the detail reported. The overall is
	// ranked once for every device.
	ref := m.Against(overall.Values)
	det := dominance.Detector{Measure: m, Phi: phi}
	det.Similarity = func(_ int, ds dominance.DeviceSeries, _ *timeseries.Series) float64 {
		d := ref.Detailed(ds.Series.Values)
		out.Details[ds.Device.MAC] = d
		return d.Similarity
	}
	out.Dominance = det.Detect(overall, devSeries)
	return out, nil
}
