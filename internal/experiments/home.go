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
	"homesight/internal/store"
	"homesight/internal/synth"
	"homesight/internal/timeseries"
)

// homeView is the minute-level table of one home over the whole campaign:
// the gateway overall and, per device, identity and the incoming, outgoing
// and overall series. It is what one synth.Home.Traffic() or one store
// read yields and the only thing buildHome reads, so every per-home
// artifact of the suite sees the same traffic with the devices in the same
// order (inventory order from the synthesizer, MAC order from the store).
// A view lives for the duration of one build: nothing keeps the
// per-direction series afterwards.
type homeView struct {
	// overall is NaN where the gateway reported nothing.
	overall *timeseries.Series
	devs    []deviceView
}

type deviceView struct {
	// dev carries the ground-truth type where the survey knows the MAC.
	dev              devices.Device
	in, out, overall *timeseries.Series
}

// viewOf loads home h's view from the store when the store holds its
// gateway, and generates it otherwise.
func (e *Env) viewOf(h *synth.Home) homeView {
	if e.storeBacked(h.ID) {
		return e.storeView(h)
	}
	v := homeView{overall: h.Overall()}
	for _, dt := range h.Traffic() {
		v.devs = append(v.devs, deviceView{dev: dt.Spec.Device, in: dt.In, out: dt.Out, overall: dt.Overall()})
	}
	return v
}

// storeView reads h's gateway from the store over the full campaign grid,
// both directions of every device reconstructed from the cumulative
// counters. The gateway overall is the sum of the device overalls, so it
// is missing exactly where no device reported. Store read errors are disk
// corruption, not analysis conditions, so they panic like the other
// unreachable grid mismatches in this package — run `homestore verify` on
// a suspect dir.
func (e *Env) storeView(h *synth.Home) homeView {
	n := e.Dep.Config().Minutes()
	to := e.store.Start().Add(time.Duration(n) * e.store.Step())
	truth := make(map[string]devices.Type, len(h.Devices))
	for _, spec := range h.Devices {
		truth[spec.Device.MAC] = spec.Device.Truth
	}
	var v homeView
	for _, mac := range e.store.Devices(h.ID) {
		var res [2]*store.Result
		for dir := 0; dir < 2; dir++ {
			var err error
			//homesight:ignore ctx-flow — cache fill runs to completion by design: a half-read home must never be memoized
			res[dir], err = e.store.Query(context.Background(), store.QueryRequest{
				Key:         store.Key{Gateway: h.ID, Device: mac, Dir: store.Direction(dir)},
				To:          to,
				Reconstruct: true,
			})
			if err != nil {
				panic(fmt.Sprintf("experiments: reading %s/%s from store: %v", h.ID, mac, err))
			}
		}
		if res[0].LastIndex < 0 && res[1].LastIndex < 0 {
			continue
		}
		in, out := res[0].Series, res[1].Series
		sum, err := in.Add(out)
		if err != nil {
			panic(err) // same grid by construction
		}
		name := e.store.DeviceName(h.ID, mac)
		v.devs = append(v.devs, deviceView{
			dev: devices.Device{MAC: mac, Name: name, Inferred: devices.Classify(mac, name), Truth: truth[mac]},
			in:  in, out: out, overall: sum,
		})
		if v.overall == nil {
			v.overall = sum.Clone()
			continue
		}
		if v.overall, err = v.overall.Add(sum); err != nil {
			panic(err) // same grid by construction
		}
	}
	if v.overall == nil {
		vals := make([]float64, n)
		for m := range vals {
			vals[m] = math.NaN()
		}
		v.overall = timeseries.New(e.store.Start(), e.store.Step(), vals)
	}
	return v
}

// gatewayCache is everything the suite keeps of one home at minute
// resolution, produced by one buildHome over one view of the home.
type gatewayCache struct {
	id        string
	index     int
	residents int
	surveyed  bool
	archetype synth.Archetype

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
	// mainGateway and mainDevices are the dominance input: raw and devices
	// over WeeksMain — views, not copies.
	mainGateway *timeseries.Series
	mainDevices []dominance.DeviceSeries

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

// home returns the memoized per-home build of home i, generating or
// reading the home on first use.
func (e *Env) home(i int) *gatewayCache {
	return e.homes.get(i, func() *gatewayCache {
		h := e.Home(i)
		return e.buildHome(h, e.viewOf(h))
	})
}

// buildHome derives every minute-resolution artifact of home h from one
// view of it. The device overalls, raw and active are kept; the
// per-direction series are only read here, which is what lets one
// generation (or store read) of the home serve the whole suite without
// holding three series per device for the length of the run. Every sum
// runs over the devices in view order.
func (e *Env) buildHome(h *synth.Home, v homeView) *gatewayCache {
	gc := &gatewayCache{
		id:        h.ID,
		index:     h.Index,
		residents: h.Residents,
		surveyed:  h.Index < e.SurveyHomes,
		archetype: h.Archetype,
		raw:       v.overall,
		inOut:     inOutCorrelation(v),
		devCount:  deviceCountCorrelation(v),
	}
	gc.weeklyCoverageMain = dataset.HasWeeklyCoverage(gc.raw, e.WeeksMain)
	gc.weeklyCoverageMotif = dataset.HasWeeklyCoverage(gc.raw, e.WeeksWeeklyMotif)
	gc.dailyCoverageMain = dataset.HasDailyCoverage(gc.raw, e.WeeksMain*7)

	campaignDays := e.Dep.Config().Weeks * 7
	mainDays := e.WeeksMain * 7
	keepDays := max(e.WeeksMain, e.WeeksWeeklyMotif) * 7
	gc.mainGateway = prefix(gc.raw, mainDays)
	var sum *timeseries.Series
	for _, d := range v.devs {
		// The active aggregate thresholds each device at its τ_back over
		// the whole campaign (Sec. 6.1) before summing, so background
		// chatter does not pollute the aggregate patterns.
		campaign := background.EstimateThreshold(d.in, d.out)
		act := d.overall.Threshold(campaign.Tau())
		if sum == nil {
			sum = act
		} else {
			s, err := sum.Add(act)
			if err != nil {
				panic(err) // same grid by construction
			}
			sum = s
		}

		// Fig. 4 estimates τ over WeeksMain; barely-seen devices have no
		// meaningful background.
		if in := prefix(d.in, mainDays); in.ObservedCount() >= 60 {
			th := campaign
			if mainDays < campaignDays {
				th = background.EstimateThreshold(in, prefix(d.out, mainDays))
			}
			gc.taus = append(gc.taus, deviceTau{dev: d.dev, th: th})
		}

		kept := d.overall
		if keepDays < campaignDays {
			kept = truncate(kept, keepDays) // a copy: the unread tail is not held
		}
		gc.devices = append(gc.devices, dominance.DeviceSeries{Device: d.dev, Series: kept})
		gc.mainDevices = append(gc.mainDevices, dominance.DeviceSeries{Device: d.dev, Series: prefix(kept, mainDays)})
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
	return gc
}

// prefix returns the first `days` days of a minute series as a view
// sharing s's storage — for reading; truncate copies.
func prefix(s *timeseries.Series, days int) *timeseries.Series {
	n := min(days*24*60, len(s.Values))
	return &timeseries.Series{Start: s.Start, Step: s.Step, Values: s.Values[:n:n]}
}
