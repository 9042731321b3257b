// Package aggregate implements Definition 3 of the paper: choosing the best
// time-aggregation granularity as the one that maximizes the expected
// window-to-window correlation similarity. It produces the aggregation
// curves of Figs. 6 and 8 (weekly and daily patterns) and the stationary-
// gateway counts of Fig. 7.
package aggregate

import (
	"time"

	"homesight/internal/stationarity"
	"homesight/internal/timeseries"
)

// WeeklyBins are the candidate granularities of Sec. 7.1.1: factors of 24h
// (plus the raw 1-minute binning, which the curves show to be hopeless).
var WeeklyBins = []time.Duration{
	time.Minute,
	1 * time.Hour, 2 * time.Hour, 3 * time.Hour, 4 * time.Hour,
	6 * time.Hour, 8 * time.Hour, 12 * time.Hour, 24 * time.Hour,
}

// DailyBins are the candidate granularities of Sec. 7.1.2, all factors of
// 1440 minutes and small enough to leave >= 8 points per day.
var DailyBins = []time.Duration{
	1 * time.Minute, 5 * time.Minute, 10 * time.Minute, 30 * time.Minute,
	60 * time.Minute, 90 * time.Minute, 120 * time.Minute, 180 * time.Minute,
}

// BestWeekly is the paper's winning weekly aggregation: 8-hour bins
// starting at 2am.
var BestWeekly = timeseries.WeeklySpec(8*time.Hour, 2*time.Hour)

// BestDaily is the paper's winning daily aggregation: 3-hour bins.
var BestDaily = timeseries.DailySpec(3 * time.Hour)

// Analyzer computes aggregation curves.
type Analyzer struct {
	// Checker decides strong stationarity (zero value = paper defaults).
	// Its Measure is also Definition 3's: the average similarity is read
	// off the window pairs the Definition 2 check scores anyway.
	Checker stationarity.Checker
}

// Default uses the paper's parameters everywhere.
var Default = Analyzer{}

// GatewayWeekly is the per-gateway weekly evaluation at one granularity.
type GatewayWeekly struct {
	// AvgCorr is the mean similarity over all week-week pairs.
	AvgCorr float64
	// Pairs is the number of week pairs examined.
	Pairs int
	// Stationary is the Definition 2 verdict over the week windows.
	Stationary bool
}

// WeeklyGateway evaluates one gateway's week-to-week regularity for a bin
// size and phase offset.
func (a Analyzer) WeeklyGateway(s *timeseries.Series, bin, phase time.Duration) (GatewayWeekly, error) {
	spec := timeseries.WeeklySpec(bin, phase)
	wins, err := spec.Windows(s)
	if err != nil {
		return GatewayWeekly{}, err
	}
	res := a.Checker.CheckWindows(observedWindows(wins))
	out := GatewayWeekly{Pairs: res.Pairs, Stationary: res.Stationary}
	if out.Pairs > 0 {
		out.AvgCorr = res.SumSimilarity / float64(out.Pairs)
	}
	return out, nil
}

// GatewayDaily is the per-gateway daily evaluation at one granularity.
type GatewayDaily struct {
	// AvgCorr is the mean similarity over all same-weekday day pairs
	// (Mondays vs Mondays, ... — the paper does not expect Monday to look
	// like Saturday).
	AvgCorr float64
	// Pairs is the number of same-weekday pairs examined.
	Pairs int
	// StationaryDays is the number of weekdays whose windows satisfy
	// Definition 2.
	StationaryDays int
}

// Stationary reports whether at least one weekday is stationary, the
// criterion of Fig. 7.
func (g GatewayDaily) Stationary() bool { return g.StationaryDays > 0 }

// DailyGateway evaluates one gateway's day-to-day regularity for a bin size.
func (a Analyzer) DailyGateway(s *timeseries.Series, bin time.Duration) (GatewayDaily, error) {
	spec := timeseries.DailySpec(bin)
	wins, err := spec.Windows(s)
	if err != nil {
		return GatewayDaily{}, err
	}
	res := a.Checker.CheckByWeekday(observedWindows(wins))
	out := GatewayDaily{StationaryDays: res.StationaryDays}
	// Weekday order, Sunday first: a float sum must not follow map order.
	for wd := time.Sunday; wd <= time.Saturday; wd++ {
		if r, ok := res.ByWeekday[wd]; ok {
			out.AvgCorr += r.SumSimilarity
			out.Pairs += r.Pairs
		}
	}
	if out.Pairs > 0 {
		out.AvgCorr /= float64(out.Pairs)
	}
	return out, nil
}

// CurvePoint is one point of an aggregation curve (Figs. 6 and 8).
type CurvePoint struct {
	Bin   time.Duration
	Phase time.Duration
	// AvgCorrAll is the mean per-gateway average correlation over every
	// gateway with at least one window pair.
	AvgCorrAll float64
	// AvgCorrStationary restricts the mean to strongly stationary gateways.
	AvgCorrStationary float64
	// Gateways and StationaryGateways count the populations behind the two
	// averages.
	Gateways           int
	StationaryGateways int
	// StationaryDayDist[k] counts gateways with exactly k+1 stationary
	// weekdays (daily curves only; the stack of Fig. 7).
	StationaryDayDist []int
}

// WeeklyPoint evaluates one weekly granularity across a cohort of gateway
// series.
func (a Analyzer) WeeklyPoint(cohort []*timeseries.Series, bin, phase time.Duration) (CurvePoint, error) {
	pt := CurvePoint{Bin: bin, Phase: phase}
	var sumAll, sumStat float64
	for _, s := range cohort {
		g, err := a.WeeklyGateway(s, bin, phase)
		if err != nil {
			return pt, err
		}
		if g.Pairs == 0 {
			continue
		}
		pt.Gateways++
		sumAll += g.AvgCorr
		if g.Stationary {
			pt.StationaryGateways++
			sumStat += g.AvgCorr
		}
	}
	if pt.Gateways > 0 {
		pt.AvgCorrAll = sumAll / float64(pt.Gateways)
	}
	if pt.StationaryGateways > 0 {
		pt.AvgCorrStationary = sumStat / float64(pt.StationaryGateways)
	}
	return pt, nil
}

// DailyPoint evaluates one daily granularity across a cohort.
func (a Analyzer) DailyPoint(cohort []*timeseries.Series, bin time.Duration) (CurvePoint, error) {
	pt := CurvePoint{Bin: bin, StationaryDayDist: make([]int, 7)}
	var sumAll, sumStat float64
	for _, s := range cohort {
		g, err := a.DailyGateway(s, bin)
		if err != nil {
			return pt, err
		}
		if g.Pairs == 0 {
			continue
		}
		pt.Gateways++
		sumAll += g.AvgCorr
		if g.Stationary() {
			pt.StationaryGateways++
			sumStat += g.AvgCorr
			if g.StationaryDays <= 7 {
				pt.StationaryDayDist[g.StationaryDays-1]++
			}
		}
	}
	if pt.Gateways > 0 {
		pt.AvgCorrAll = sumAll / float64(pt.Gateways)
	}
	if pt.StationaryGateways > 0 {
		pt.AvgCorrStationary = sumStat / float64(pt.StationaryGateways)
	}
	return pt, nil
}

// Best returns the curve point with the highest average correlation, using
// the stationary-gateway average when useStationary is set (the paper picks
// 8h@2am and 3h this way). Ties go to the earlier point.
func Best(points []CurvePoint, useStationary bool) CurvePoint {
	var best CurvePoint
	bestVal := -1.0
	for _, p := range points {
		v := p.AvgCorrAll
		if useStationary {
			v = p.AvgCorrStationary
		}
		if v > bestVal {
			bestVal = v
			best = p
		}
	}
	return best
}

// observedWindows filters out windows with no observations at all.
func observedWindows(wins []timeseries.Window) []timeseries.Window {
	out := make([]timeseries.Window, 0, len(wins))
	for _, w := range wins {
		if w.Observed() {
			out = append(out, w)
		}
	}
	return out
}
