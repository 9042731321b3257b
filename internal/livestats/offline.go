package livestats

import (
	"context"
	"fmt"
	"math"
	"time"

	"homesight/internal/aggregate"
	"homesight/internal/background"
	"homesight/internal/corrsim"
	"homesight/internal/dataset"
	"homesight/internal/dominance"
	"homesight/internal/motif"
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

// HomeProfile is the batch analysis of one home's minute table at the
// paper's parameters (corrsim.Measure{}, φ = dominance.DefaultPhi): the
// batch twin of a HomeSnapshot, and all the /summary endpoint renders.
type HomeProfile struct {
	// Minutes is the grid length of the table's series.
	Minutes   int
	Dominance dominance.Result
	// Details is each device's Score.Detail in Dominance, keyed by MAC.
	Details map[string]corrsim.Detail
	// Devices has one row per device, in table (MAC) order.
	Devices []DeviceProfile
	// DailyMotifs and WeeklyMotifs count the Definition 5 motifs of the
	// home's overall traffic at aggregate.BestDaily and BestWeekly.
	DailyMotifs, WeeklyMotifs int
}

// DeviceProfile is one device's row of a HomeProfile: its Score in
// Dominance and whether it is a dominant, its Sec. 6.1 whiskers, and
// the low-level activity indicators of the related category-inference
// work — the fraction of observed minutes with nonzero traffic, and
// (σ−μ)/(σ+μ) over them (-1 periodic, 0 Poissonian, →1 bursty), both 0
// for a device never observed.
type DeviceProfile struct {
	dominance.Score
	Dominant              bool
	Threshold             background.Threshold
	DutyCycle, Burstiness float64
}

// Profile runs the batch pipeline over one home's minute table: one
// dominance.Default pass and background.EstimateThreshold per device —
// the implementations the tracker's operators mirror — plus the activity
// indicators and the motif miner over the observed daily and weekly
// windows. The error is the window mapping's, for a grid step that does
// not divide the windows' bins.
func Profile(g *dataset.Gateway) (*HomeProfile, error) {
	p := &HomeProfile{
		Minutes: g.Overall.Len(),
		Details: make(map[string]corrsim.Detail, len(g.Devices)),
		Devices: make([]DeviceProfile, len(g.Devices)),
	}
	devSeries := make([]dominance.DeviceSeries, len(g.Devices))
	row := make(map[string]*DeviceProfile, len(g.Devices))
	for k, d := range g.Devices {
		devSeries[k] = dominance.DeviceSeries{Device: d.Device, Series: d.Overall()}
		r := &p.Devices[k]
		r.Threshold = background.EstimateThreshold(d.In, d.Out)
		r.DutyCycle, r.Burstiness = activity(devSeries[k].Series.Values)
		row[d.Device.MAC] = r
	}
	p.Dominance = dominance.Default.Detect(g.Overall, devSeries)
	for _, sc := range p.Dominance.All {
		p.Details[sc.Device.MAC] = sc.Detail
		row[sc.Device.MAC].Score = sc
	}
	for _, sc := range p.Dominance.Dominants {
		row[sc.Device.MAC].Dominant = true
	}
	for _, m := range []struct {
		count *int
		spec  timeseries.WindowSpec
	}{{&p.DailyMotifs, aggregate.BestDaily}, {&p.WeeklyMotifs, aggregate.BestWeekly}} {
		instances, err := motif.Instances(g.ID, g.Overall, m.spec)
		if err != nil {
			return nil, err
		}
		*m.count = len(motif.Default.Mine(instances))
	}
	return p, nil
}

// activity derives (duty cycle, burstiness) from a per-minute delta
// series; NaN minutes are unobserved and excluded.
func activity(vals []float64) (duty, burst float64) {
	var n, active int
	var sum, sq float64
	for _, v := range vals {
		if !math.IsNaN(v) {
			n, sum = n+1, sum+v
			if v > 0 {
				active++
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	mean := sum / float64(n)
	for _, v := range vals {
		if !math.IsNaN(v) {
			sq += (v - mean) * (v - mean)
		}
	}
	sigma := math.Sqrt(sq / float64(n))
	if sigma+mean > 0 {
		burst = (sigma - mean) / (sigma + mean)
	}
	return float64(active) / float64(n), burst
}

// Offline profiles one gateway of a store: one read of the home over the
// whole campaign (store.Home), then Profile. m and phi must be
// corrsim.Measure{} and dominance.DefaultPhi, the parameters Profile
// runs at; they go once the benchmark stops passing them (ROADMAP item 1
// (c)).
func Offline(ctx context.Context, st *store.Store, gw string, m corrsim.Measure, phi float64) (*HomeProfile, error) {
	if (dominance.Detector{Measure: m, Phi: phi}) != (dominance.Detector{Phi: dominance.DefaultPhi}) {
		return nil, fmt.Errorf("livestats: Offline runs at corrsim.Measure{}, φ %v only; got %+v, φ %v", dominance.DefaultPhi, m, phi)
	}
	home, err := st.Home(ctx, gw, time.Time{})
	if err != nil {
		return nil, err
	}
	return Profile(home)
}
