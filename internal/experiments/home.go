package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"homesight/internal/background"
	"homesight/internal/dataset"
	"homesight/internal/devices"
	"homesight/internal/dominance"
	"homesight/internal/synth"
	"homesight/internal/timeseries"
)

// viewOf loads home h's minute table — the gateway overall and every
// device's in, out and overall series over the whole campaign — as one
// store read (store.Home over the synthesizer's campaign grid) when the
// store holds its gateway, and as one generation otherwise. It is the
// only thing buildHome reads, so every per-home artifact of the suite sees
// the same traffic with the devices in the same order (inventory order
// from the synthesizer, MAC order from the store), each carrying its
// survey truth. A table lives for the duration of one build: nothing
// keeps the per-direction series afterwards. Store read errors are disk
// corruption, not analysis conditions, so they panic like the other
// unreachable grid mismatches in this package — run `homesight store
// verify` on a suspect dir.
func (e *Env) viewOf(h *synth.Home) *dataset.Gateway {
	if !e.storeBacked(h.ID) {
		g := &dataset.Gateway{ID: h.ID, Overall: h.Overall()}
		for _, dt := range h.Traffic() {
			g.Devices = append(g.Devices, dataset.NewDeviceRecord(dt.Spec.Device, dt.In, dt.Out))
		}
		return g
	}
	to := e.store.Start().Add(time.Duration(e.Dep.Config().Minutes()) * e.store.Step())
	//homesight:ignore ctx-flow — a home's build runs to completion by design: a half-read home must never be kept
	g, err := e.store.Home(context.Background(), h.ID, to)
	if err != nil {
		panic(fmt.Sprintf("experiments: reading %s from store: %v", h.ID, err))
	}
	truth := make(map[string]devices.Type, len(h.Devices))
	for _, spec := range h.Devices {
		truth[spec.Device.MAC] = spec.Device.Truth
	}
	for k := range g.Devices {
		g.Devices[k].Device.Truth = truth[g.Devices[k].Device.MAC]
	}
	return g
}

// gatewayCache is everything the suite keeps of one home at minute
// resolution, produced by one buildHome over one view of the home.
type gatewayCache struct {
	id        string
	index     int
	residents int
	surveyed  bool

	// raw is the full-campaign overall traffic.
	raw *timeseries.Series
	// active is raw with per-device background removed before summing.
	active *timeseries.Series

	weeklyCoverageMain  bool // >=1 obs every week of WeeksMain
	weeklyCoverageMotif bool // >=1 obs every week of WeeksWeeklyMotif
	dailyCoverageMain   bool // >=1 obs every day of WeeksMain

	// devices holds every device's overall series over the longer of the
	// two analysis windows, in view order: the span the motif members'
	// windows fall in.
	devices []dominance.DeviceSeries
	// dom is the Definition 4 result over WeeksMain, computed by the build
	// for the homes of the weekly cohort (weeklyCoverageMain) and zero for
	// the rest. It is the only Definition 4 result the suite reads.
	dom dominance.Result

	// The per-home facts three experiments reduce over.
	inOut    homeCoeff   // Sec. 4.1b
	devCount homeCoeff   // Sec. 4.2c
	taus     []deviceTau // Fig. 4: the devices with a meaningful background
}

// deviceTau is one device's Fig. 4 threshold, estimated over WeeksMain.
type deviceTau struct {
	dev devices.Device
	th  background.Threshold
}

// buildHome derives every minute-resolution artifact of home h from one
// table of it. The device overalls, raw and active are kept; the
// per-direction series are only read here, which is what lets one
// generation (or store read) of the home serve the whole suite without
// holding three series per device for the length of the run. Every sum
// runs over the devices in table order. A weekly-cohort home also gets its
// one Definition 1 / Definition 4 pass here, so dominance is built where
// the home is, fanned out with the builds.
func (e *Env) buildHome(h *synth.Home, g *dataset.Gateway) *gatewayCache {
	gc := &gatewayCache{
		id:        h.ID,
		index:     h.Index,
		residents: h.Residents,
		surveyed:  h.Index < e.SurveyHomes,
		raw:       g.Overall,
		inOut:     inOutCorrelation(g),
		devCount:  deviceCountCorrelation(g),
	}
	gc.weeklyCoverageMain = dataset.HasWeeklyCoverage(gc.raw, e.WeeksMain)
	gc.weeklyCoverageMotif = dataset.HasWeeklyCoverage(gc.raw, e.WeeksWeeklyMotif)
	gc.dailyCoverageMain = dataset.HasDailyCoverage(gc.raw, e.WeeksMain*7)

	campaignDays := e.Dep.Config().Weeks * 7
	mainDays := e.WeeksMain * 7
	keepDays := max(e.WeeksMain, e.WeeksWeeklyMotif) * 7
	var sum *timeseries.Series
	for _, d := range g.Devices {
		overall := d.Overall
		// The active aggregate thresholds each device at its τ_back over
		// the whole campaign (Sec. 6.1) before summing, so background
		// chatter does not pollute the aggregate patterns.
		campaign := background.EstimateThreshold(d.In, d.Out)
		act := overall.Threshold(campaign.Tau())
		if sum == nil {
			sum = act
		} else if err := sum.Add(act); err != nil {
			panic(err) // same grid by construction
		}

		// Fig. 4 estimates τ over WeeksMain; barely-seen devices have no
		// meaningful background.
		if in := prefix(d.In, mainDays); in.ObservedCount() >= 60 {
			th := campaign
			if mainDays < campaignDays {
				th = background.EstimateThreshold(in, prefix(d.Out, mainDays))
			}
			gc.taus = append(gc.taus, deviceTau{dev: d.Device, th: th})
		}

		if keepDays < campaignDays {
			overall = truncate(overall, keepDays) // a copy: the unread tail is not held
		}
		gc.devices = append(gc.devices, dominance.DeviceSeries{Device: d.Device, Series: overall})
	}
	gc.active = gc.raw
	if sum != nil {
		// Preserve gateway-off minutes as missing: Add treats NaN+x as x,
		// but a minute where the gateway reported nothing must stay NaN.
		for m, x := range gc.raw.Values {
			if math.IsNaN(x) {
				sum.Values[m] = math.NaN()
			}
		}
		gc.active = sum
	}
	if gc.weeklyCoverageMain {
		// The framework detector over the main window: the raw overall and
		// every device's overall over WeeksMain, as views.
		devs := make([]dominance.DeviceSeries, len(gc.devices))
		for k, ds := range gc.devices {
			devs[k] = dominance.DeviceSeries{Device: ds.Device, Series: prefix(ds.Series, mainDays)}
		}
		gc.dom = dominance.Default.Detect(prefix(gc.raw, mainDays), devs)
	}
	return gc
}

// prefix returns the first `days` days of a minute series as a view
// sharing s's storage — for reading; truncate copies.
func prefix(s *timeseries.Series, days int) *timeseries.Series {
	n := min(days*24*60, len(s.Values))
	return &timeseries.Series{Start: s.Start, Step: s.Step, Values: s.Values[:n:n]}
}
