package experiments

import (
	"context"
	"fmt"
	"time"

	"homesight/internal/aggregate"
	"homesight/internal/report"
)

// Fig06Result reproduces Fig. 6: weekly aggregation curves for midnight and
// 2am window phases.
type Fig06Result struct {
	// Midnight and TwoAM hold one curve point per candidate bin.
	Midnight, TwoAM []aggregate.CurvePoint
	// Best is the winning point by the stationary-gateway criterion
	// (paper: 8h @ 2am).
	Best aggregate.CurvePoint
	// Cohort is the number of gateways with weekly coverage.
	Cohort int
}

// Fig06WeeklyAggregation sweeps the weekly candidate binnings over the
// weekly-coverage cohort (active traffic, background removed as in
// Sec. 7.1). The (bin, phase) sweep points are independent, so they fan
// out across the Env's parallelism.
func Fig06WeeklyAggregation(ctx context.Context, e *Env) (Fig06Result, error) {
	_, cohort := e.WeeklyCohort(e.WeeksMain)
	res := Fig06Result{Cohort: len(cohort)}
	an := aggregate.Default
	type job struct {
		bin   time.Duration
		phase time.Duration
	}
	var jobs []job
	for _, bin := range aggregate.WeeklyBins {
		jobs = append(jobs, job{bin: bin, phase: 0})
		if bin > 2*time.Hour {
			jobs = append(jobs, job{bin: bin, phase: 2 * time.Hour})
		}
	}
	points := make([]aggregate.CurvePoint, len(jobs))
	errs := make([]error, len(jobs))
	if err := e.forEach(ctx, len(jobs), func(k int) {
		points[k], errs[k] = an.WeeklyPoint(cohort, jobs[k].bin, jobs[k].phase)
	}); err != nil {
		return res, err
	}
	for k, j := range jobs {
		if errs[k] != nil {
			return res, errs[k]
		}
		if j.phase == 0 {
			res.Midnight = append(res.Midnight, points[k])
		} else {
			res.TwoAM = append(res.TwoAM, points[k])
		}
	}
	// The winner is chosen on the all-gateway curve (Definition 3 is over
	// the whole cohort); the stationary-gateway column is reported
	// alongside, as in the paper's discussion.
	all := append(append([]aggregate.CurvePoint{}, res.Midnight...), res.TwoAM...)
	res.Best = aggregate.Best(all, false)
	return res, nil
}

// String renders the result.
func (r Fig06Result) String() string {
	t := report.NewTable("Fig 6 — weekly aggregation curves ("+fmt.Sprint(r.Cohort)+" gateways)",
		"bin", "phase", "avg corr (all)", "avg corr (stationary)", "stationary gw")
	for _, p := range r.Midnight {
		t.AddRow(p.Bin.String(), "0h", p.AvgCorrAll, p.AvgCorrStationary, p.StationaryGateways)
	}
	for _, p := range r.TwoAM {
		t.AddRow(p.Bin.String(), "2h", p.AvgCorrAll, p.AvgCorrStationary, p.StationaryGateways)
	}
	return t.String() + fmt.Sprintf("best: %v @ %v\n", r.Best.Bin, r.Best.Phase)
}

// Fig07Result reproduces Fig. 7: stationary gateways per daily granularity,
// stacked by the number of stationary weekdays.
type Fig07Result struct {
	// Bins lists the examined granularities (10..180 minutes).
	Bins []time.Duration
	// Stationary[i] is the number of stationary gateways at Bins[i].
	Stationary []int
	// DayDist[i][k] counts gateways with exactly k+1 stationary weekdays.
	DayDist [][]int
	Cohort  int
}

// fig07Bins are the granularities of Fig. 7.
var fig07Bins = []time.Duration{
	10 * time.Minute, 30 * time.Minute, 60 * time.Minute,
	90 * time.Minute, 120 * time.Minute, 180 * time.Minute,
}

// Fig07StationaryGateways counts strongly stationary gateways per daily
// granularity over the daily-coverage cohort.
func Fig07StationaryGateways(ctx context.Context, e *Env) (Fig07Result, error) {
	_, cohort := e.DailyCohort()
	res := Fig07Result{Cohort: len(cohort)}
	an := aggregate.Default
	points := make([]aggregate.CurvePoint, len(fig07Bins))
	errs := make([]error, len(fig07Bins))
	if err := e.forEach(ctx, len(fig07Bins), func(k int) {
		points[k], errs[k] = an.DailyPoint(cohort, fig07Bins[k])
	}); err != nil {
		return res, err
	}
	for k, bin := range fig07Bins {
		if errs[k] != nil {
			return res, errs[k]
		}
		res.Bins = append(res.Bins, bin)
		res.Stationary = append(res.Stationary, points[k].StationaryGateways)
		res.DayDist = append(res.DayDist, points[k].StationaryDayDist)
	}
	return res, nil
}

// String renders the result.
func (r Fig07Result) String() string {
	t := report.NewTable("Fig 7 — stationary gateways per aggregation window ("+fmt.Sprint(r.Cohort)+" gateways)",
		"bin (min)", "stationary", "1 day", "2 days", "3 days", "4+ days")
	for i, bin := range r.Bins {
		d := r.DayDist[i]
		fourPlus := 0
		for k := 3; k < len(d); k++ {
			fourPlus += d[k]
		}
		t.AddRow(int(bin.Minutes()), r.Stationary[i], d[0], d[1], d[2], fourPlus)
	}
	return t.String()
}

// Fig08Result reproduces Fig. 8: daily aggregation curves for all vs
// stationary gateways.
type Fig08Result struct {
	Points []aggregate.CurvePoint
	Best   aggregate.CurvePoint
	Cohort int
}

// Fig08DailyAggregation sweeps the daily candidate binnings.
func Fig08DailyAggregation(ctx context.Context, e *Env) (Fig08Result, error) {
	_, cohort := e.DailyCohort()
	res := Fig08Result{Cohort: len(cohort)}
	an := aggregate.Default
	points := make([]aggregate.CurvePoint, len(aggregate.DailyBins))
	errs := make([]error, len(aggregate.DailyBins))
	if err := e.forEach(ctx, len(aggregate.DailyBins), func(k int) {
		points[k], errs[k] = an.DailyPoint(cohort, aggregate.DailyBins[k])
	}); err != nil {
		return res, err
	}
	for k := range aggregate.DailyBins {
		if errs[k] != nil {
			return res, errs[k]
		}
		res.Points = append(res.Points, points[k])
	}
	res.Best = aggregate.Best(res.Points, false)
	return res, nil
}

// String renders the result.
func (r Fig08Result) String() string {
	t := report.NewTable("Fig 8 — daily aggregation curves ("+fmt.Sprint(r.Cohort)+" gateways)",
		"bin (min)", "avg corr (all)", "avg corr (stationary)", "stationary gw")
	for _, p := range r.Points {
		t.AddRow(int(p.Bin.Minutes()), p.AvgCorrAll, p.AvgCorrStationary, p.StationaryGateways)
	}
	return t.String() + fmt.Sprintf("best: %v\n", r.Best.Bin)
}

// StationaryShareResult reproduces the Sec. 7 intro numbers: the share of
// weekly-stationary gateways at 3h bins, with and without background
// removal (paper: 7% → 11%).
type StationaryShareResult struct {
	Cohort int
	// RawStationary and ActiveStationary count stationary gateways on raw
	// and background-removed traffic.
	RawStationary, ActiveStationary int
}

// RawShare and ActiveShare are the headline fractions.
func (r StationaryShareResult) RawShare() float64 {
	if r.Cohort == 0 {
		return 0
	}
	return float64(r.RawStationary) / float64(r.Cohort)
}

// ActiveShare is the background-removed share.
func (r StationaryShareResult) ActiveShare() float64 {
	if r.Cohort == 0 {
		return 0
	}
	return float64(r.ActiveStationary) / float64(r.Cohort)
}

// TabStationaryShare evaluates weekly strong stationarity at 3h bins.
func TabStationaryShare(ctx context.Context, e *Env) (StationaryShareResult, error) {
	res := StationaryShareResult{}
	an := aggregate.Default
	days := e.WeeksMain * 7
	idxs := e.WeeklyCohortIndexes()
	type perHome struct {
		raw, act bool
		err      error
	}
	per := make([]perHome, len(idxs))
	gws := e.gatewayCaches()
	if err := e.forEach(ctx, len(idxs), func(j int) {
		gc := gws[idxs[j]]
		p := &per[j]
		raw, err := an.WeeklyGateway(truncate(gc.raw, days), 3*time.Hour, 0)
		if err != nil {
			p.err = err
			return
		}
		p.raw = raw.Stationary
		act, err := an.WeeklyGateway(truncate(gc.active, days), 3*time.Hour, 0)
		if err != nil {
			p.err = err
			return
		}
		p.act = act.Stationary
	}); err != nil {
		return res, err
	}
	for _, p := range per {
		if p.err != nil {
			return res, p.err
		}
		res.Cohort++
		if p.raw {
			res.RawStationary++
		}
		if p.act {
			res.ActiveStationary++
		}
	}
	return res, nil
}

// String renders the result.
func (r StationaryShareResult) String() string {
	t := report.NewTable("Sec 7 — weekly strong stationarity at 3h bins",
		"traffic", "stationary", "share")
	t.AddRow("raw", r.RawStationary, fmt.Sprintf("%.0f%%", r.RawShare()*100))
	t.AddRow("background removed", r.ActiveStationary, fmt.Sprintf("%.0f%%", r.ActiveShare()*100))
	return t.String()
}
