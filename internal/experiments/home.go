package experiments

import (
	"math"
	"slices"
	"time"

	"homesight/internal/background"
	"homesight/internal/dataset"
	"homesight/internal/devices"
	"homesight/internal/dominance"
	"homesight/internal/timeseries"
)

// gatewayCache is everything the suite keeps of one home at minute
// resolution, produced by one buildHome over one read of the home. Its
// series are columns: four bytes a minute for whole byte counts.
type gatewayCache struct {
	id    string
	index int

	// raw is the full-campaign overall traffic.
	raw *column
	// active is raw with per-device background removed before summing.
	active *column

	weeklyCoverageMain  bool // >=1 obs every week of WeeksMain
	weeklyCoverageMotif bool // >=1 obs every week of WeeksWeeklyMotif
	dailyCoverageMain   bool // >=1 obs every day of WeeksMain

	// devices holds every device's overall series over the longer of the
	// two analysis windows, in view order: the span the motif members'
	// windows fall in.
	devices []deviceColumn
	// dom is the Definition 4 result over WeeksMain, computed by the build
	// for the homes of the weekly cohort (weeklyCoverageMain) and zero for
	// the rest. It is the only Definition 4 result the suite reads.
	dom dominance.Result

	// The per-home facts three experiments reduce over.
	inOut    homeCoeff   // Sec. 4.1b
	devCount homeCoeff   // Sec. 4.2c
	taus     []deviceTau // Fig. 4: the devices with a meaningful background
}

// deviceColumn is one device's kept overall.
type deviceColumn struct {
	dev     devices.Device
	overall *column
}

// column is a minute series kept at the width of its data: whole byte
// counts as uint32, math.MaxUint32 where a minute is missing. A series
// with a value that does not fit (a fraction, -0, ±Inf, 2^32-1 B or more,
// as a store-backed gigabit device can move in a minute) stays a Series.
type column struct {
	start time.Time
	vals  []uint32           // nil when wide is set
	wide  *timeseries.Series // set only when some value does not fit vals
}

const missing = math.MaxUint32

// newColumn copies the minute series s into a column.
func newColumn(s *timeseries.Series) *column {
	c := &column{start: s.Start, vals: make([]uint32, len(s.Values))}
	for m, v := range s.Values {
		switch {
		case v >= 0 && v < missing && math.Float64bits(float64(uint32(v))) == math.Float64bits(v):
			c.vals[m] = uint32(v)
		case math.IsNaN(v):
			c.vals[m] = missing
		default:
			return &column{start: s.Start, wide: s.Clone()}
		}
	}
	return c
}

// at is minute m, NaN when missing.
func (c *column) at(m int) float64 {
	if c.wide != nil {
		return c.wide.Values[m]
	} else if c.vals[m] == missing {
		return math.NaN()
	}
	return float64(c.vals[m])
}

// bounds is [from, to) as indices, clipped as Series.Between clips it.
func (c *column) bounds(from, to time.Time) (i, j int) {
	n := len(c.vals)
	if c.wide != nil {
		n = c.wide.Len()
	}
	i = min(max(int(from.Sub(c.start)/timeseries.Minute), 0), n)
	return i, min(max(int(to.Sub(c.start)/timeseries.Minute), i), n)
}

// widen returns the minutes [from, to) in buf, reused from index 0.
func (c *column) widen(buf []float64, from, to time.Time) []float64 {
	i, j := c.bounds(from, to)
	for buf = slices.Grow(buf[:0], j-i); i < j; i++ {
		buf = append(buf, c.at(i))
	}
	return buf
}

// series returns a fresh copy of what Between returns over [from, to) on
// the series the column was made from.
func (c *column) series(from, to time.Time) *timeseries.Series {
	if c.wide != nil {
		return c.wide.Between(from, to)
	}
	if i, j := c.bounds(from, to); i < j {
		return &timeseries.Series{Start: c.start.Add(time.Duration(i) * timeseries.Minute), Step: timeseries.Minute, Values: c.widen(nil, from, to)}
	}
	return &timeseries.Series{Start: from.UTC(), Step: timeseries.Minute}
}

// observed counts the observed minutes of [from, to).
func (c *column) observed(from, to time.Time) (n int) {
	for i, j := c.bounds(from, to); i < j; i++ {
		if !math.IsNaN(c.at(i)) {
			n++
		}
	}
	return n
}

// deviceTau is one device's Fig. 4 threshold, estimated over WeeksMain.
type deviceTau struct {
	dev devices.Device
	th  background.Threshold
}

// buildHome derives every minute-resolution artifact of home i from one
// table of it. Everything that reads float64 (coverage, the active sum,
// τ, and a weekly-cohort home's one Definition 1 / Definition 4 pass, so
// dominance is built where the home is) runs on the table; raw, active
// and the device overalls are then kept as columns. The per-direction
// series die with the table, which is what lets one read of the home
// serve the whole suite. Sums run in table order.
func (e *Env) buildHome(i int, g *dataset.Gateway) *gatewayCache {
	raw := g.Overall
	gc := &gatewayCache{
		id:                  g.ID,
		index:               i,
		weeklyCoverageMain:  dataset.HasWeeklyCoverage(raw, e.WeeksMain),
		weeklyCoverageMotif: dataset.HasWeeklyCoverage(raw, e.WeeksWeeklyMotif),
		dailyCoverageMain:   dataset.HasDailyCoverage(raw, e.WeeksMain*7),
		inOut:               inOutCorrelation(g),
		devCount:            deviceCountCorrelation(g),
	}

	campaignDays := e.Campaign().Weeks * 7
	mainDays := e.WeeksMain * 7
	keepDays := max(e.WeeksMain, e.WeeksWeeklyMotif) * 7
	var sum *timeseries.Series
	for _, d := range g.Devices {
		// The active aggregate thresholds each device at its τ_back over
		// the whole campaign (Sec. 6.1) before summing, so background
		// chatter does not pollute the aggregate patterns.
		campaign := background.EstimateThreshold(d.In, d.Out)
		act := d.Overall.Threshold(campaign.Tau())
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
		gc.devices = append(gc.devices, deviceColumn{dev: d.Device, overall: newColumn(prefix(d.Overall, keepDays))})
	}
	gc.raw = newColumn(raw)
	gc.active = gc.raw
	if sum != nil {
		// Preserve gateway-off minutes as missing: Add treats NaN+x as x,
		// but a minute where the gateway reported nothing must stay NaN.
		for m, x := range raw.Values {
			if math.IsNaN(x) {
				sum.Values[m] = math.NaN()
			}
		}
		gc.active = newColumn(sum)
	}
	if gc.weeklyCoverageMain {
		// The framework detector over the main window: the raw overall and
		// every device's overall over WeeksMain, as views.
		devs := make([]dominance.DeviceSeries, len(g.Devices))
		for k, d := range g.Devices {
			devs[k] = dominance.DeviceSeries{Device: d.Device, Series: prefix(d.Overall, mainDays)}
		}
		gc.dom = dominance.Default.Detect(prefix(raw, mainDays), devs)
	}
	return gc
}

// prefix returns the first `days` days of a minute series as a view
// sharing s's storage — for reading; truncate copies.
func prefix(s *timeseries.Series, days int) *timeseries.Series {
	n := min(days*24*60, len(s.Values))
	return &timeseries.Series{Start: s.Start, Step: s.Step, Values: s.Values[:n:n]}
}
