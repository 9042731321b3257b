package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"homesight/internal/background"
	"homesight/internal/cluster"
	"homesight/internal/corrsim"
	"homesight/internal/dataset"
	"homesight/internal/devices"
	"homesight/internal/report"
	"homesight/internal/stats"
	"homesight/internal/stats/corr"
	"homesight/internal/stats/tests"
	"homesight/internal/timeseries"
)

// Fig01Result reproduces Fig. 1: the statistical anatomy of a typical
// gateway (one week of incoming traffic).
type Fig01Result struct {
	GatewayID string
	// ZipfFit quantifies the Zipfian value distribution of Fig. 1a.
	ZipfFit stats.ZipfFit
	// KDEAtZero and KDEAtP95 sample the estimated PDF near zero and at the
	// 95th percentile: the paper's point is that the mass near zero dwarfs
	// the active-traffic region.
	KDEAtZero, KDEAtP95 float64
	// Boxplot carries quartiles/whiskers/outliers (Figs. 1c/1d).
	Boxplot stats.Boxplot
	// OutlierShare is the fraction of observations flagged as outliers —
	// the active traffic detected as "anomalous" by standard analysis.
	OutlierShare float64
	// SeriesSpark is a sparkline of the week (Fig. 1b stand-in).
	SeriesSpark string
}

// Fig01TypicalGateway analyzes the most-observed gateway's first week.
func Fig01TypicalGateway(ctx context.Context, e *Env) (Fig01Result, error) {
	if err := ctx.Err(); err != nil {
		return Fig01Result{}, err
	}
	g, err := e.src.home(ctx, e.TopObservedGateways(1)[0])
	if err != nil {
		return Fig01Result{}, err
	}
	// Incoming gateway traffic for one week.
	n := 7 * 24 * 60
	in := make([]float64, n)
	for _, d := range g.Devices {
		for m := 0; m < n; m++ {
			if v := d.In.Values[m]; !math.IsNaN(v) {
				in[m] += v
			}
		}
	}
	res := Fig01Result{GatewayID: g.ID}
	res.ZipfFit = stats.FitZipf(in)
	kde := stats.NewKDE(in, 0)
	res.KDEAtZero = kde.PDF(0)
	res.KDEAtP95 = kde.PDF(stats.Quantile(in, 0.95))
	bp, err := stats.NewBoxplot(in, stats.DefaultWhiskerK)
	if err == nil {
		res.Boxplot = bp
		res.OutlierShare = float64(len(bp.Outliers)) / float64(n)
	}
	hourly, _ := timeseries.New(g.Overall.Start, time.Minute, in).Aggregate(3 * time.Hour)
	res.SeriesSpark = report.Sparkline(hourly.Values)
	return res, nil
}

// String renders the result.
func (r Fig01Result) String() string {
	t := report.NewTable("Fig 1 — typical gateway ("+r.GatewayID+", 1 week incoming)",
		"metric", "value")
	t.AddRow("zipf exponent", r.ZipfFit.Exponent)
	t.AddRow("zipf log-log R2", r.ZipfFit.R2)
	t.AddRow("KDE density at 0", r.KDEAtZero)
	t.AddRow("KDE density at p95", r.KDEAtP95)
	t.AddRow("median (bytes/min)", r.Boxplot.Median)
	t.AddRow("upper whisker", r.Boxplot.UpperWhisker)
	t.AddRow("outlier share", r.OutlierShare)
	return t.String() + "3h profile: " + r.SeriesSpark + "\n"
}

// InOutResult reproduces Sec. 4.1(b): the distribution of per-gateway
// correlation between incoming and outgoing traffic.
type InOutResult struct {
	Mean, Median, StdDev float64
	Gateways             int
}

// homeCoeff is one home's contribution to a per-gateway correlation
// table: the coefficient, whether it is significant at corrsim.DefaultAlpha (where
// the table reports that), and whether the home has one at all.
type homeCoeff struct {
	coeff   float64
	sig, ok bool
}

// inOutCorrelation is corr(in, out) of one home's summed device traffic
// over week one.
func inOutCorrelation(g *dataset.Gateway) homeCoeff {
	const n = 7 * 24 * 60
	in := make([]float64, n)
	out := make([]float64, n)
	for _, d := range g.Devices {
		for m := 0; m < n; m++ {
			if x := d.In.Values[m]; !math.IsNaN(x) {
				in[m] += x
				out[m] += d.Out.Values[m]
			}
		}
	}
	// The paper reports the distribution of the *raw* coefficient here
	// (mean ≈ .92): gating insignificant values to zero would shift the
	// mean, so this site deliberately bypasses Definition 1.
	r, err := corr.Pearson(in, out) //homesight:rawcorr
	if err != nil || math.IsNaN(r.Coeff) {
		return homeCoeff{}
	}
	return homeCoeff{coeff: r.Coeff, ok: true}
}

// TabInOutCorrelation reduces the per-gateway corr(in, out) of week one.
func TabInOutCorrelation(ctx context.Context, e *Env) (InOutResult, error) {
	if err := ctx.Err(); err != nil {
		return InOutResult{}, err
	}
	var coeffs []float64
	for _, gc := range e.gatewayCaches() {
		if gc.inOut.ok {
			coeffs = append(coeffs, gc.inOut.coeff)
		}
	}
	return InOutResult{
		Mean:     stats.Mean(coeffs),
		Median:   stats.Median(coeffs),
		StdDev:   stats.StdDev(coeffs),
		Gateways: len(coeffs),
	}, nil
}

// String renders the result.
func (r InOutResult) String() string {
	t := report.NewTable("Sec 4.1b — corr(incoming, outgoing) per gateway",
		"mean", "median", "stddev", "gateways")
	t.AddRow(r.Mean, r.Median, r.StdDev, r.Gateways)
	return t.String()
}

// Fig02Result reproduces Fig. 2: the strongest autocorrelation and a
// cross-correlation example.
type Fig02Result struct {
	// BestACFGateway and BestACF hold the gateway with the largest lag>0
	// autocorrelation (30-minute bins, lags up to 96 = 2 days).
	BestACFGateway string
	BestACF        []float64
	// SignificanceBound is the white-noise band ±1.96/sqrt(n).
	SignificanceBound float64
	// CCFPair and CCF hold the most cross-correlated gateway pair among the
	// examined set, lags -48..48.
	CCFPair [2]string
	CCF     []float64
	// PeakCCFLag is the lag (in bins) of the CCF peak.
	PeakCCFLag int
}

// topObservedBins sums the raw overall of each of the ten top observed
// gateways (TopObservedGateways) over its first `days` days, missing as
// zero, into bins; a series that does not aggregate is left out.
func topObservedBins(ctx context.Context, e *Env, days int, bin time.Duration) (ids []string, vals [][]float64, err error) {
	top := e.TopObservedGateways(10)
	per := make([][]float64, len(top))
	if err := e.ForEach(ctx, len(top), func(k int) {
		if agg, err := e.RawOverall(top[k], days).FillMissing(0).Aggregate(bin); err == nil {
			per[k] = agg.Values
		}
	}); err != nil {
		return nil, nil, err
	}
	for k, v := range per {
		if v != nil {
			ids, vals = append(ids, e.home(top[k]).id), append(vals, v)
		}
	}
	return ids, vals, nil
}

// Fig02ACFCCF computes ACF/CCF structure over the top observed gateways.
func Fig02ACFCCF(ctx context.Context, e *Env) (Fig02Result, error) {
	const maxLag = 96
	res := Fig02Result{}
	ids, ser, err := topObservedBins(ctx, e, 14, 30*time.Minute)
	if err != nil || len(ser) == 0 {
		return res, err
	}
	res.SignificanceBound = corr.WhiteNoiseBound(len(ser[0]))

	acfs := make([][]float64, len(ser))
	if err := e.ForEach(ctx, len(ser), func(k int) {
		acfs[k] = corr.ACF(ser[k], maxLag)
	}); err != nil {
		return Fig02Result{}, err
	}
	bestScore := -1.0
	for k, acf := range acfs {
		score := 0.0
		for _, v := range acf[1:] {
			if math.Abs(v) > score {
				score = math.Abs(v)
			}
		}
		if score > bestScore {
			bestScore = score
			res.BestACF = acf
			res.BestACFGateway = ids[k]
		}
	}

	bestCC := -1.0
	for i := 0; i < len(ser); i++ {
		for j := i + 1; j < len(ser); j++ {
			cc, err := corr.CCF(ser[i], ser[j], 48)
			if err != nil {
				continue
			}
			peak, lag := 0.0, 0
			for k, v := range cc {
				if math.Abs(v) > peak {
					peak, lag = math.Abs(v), k-48
				}
			}
			if peak > bestCC {
				bestCC = peak
				res.CCF = cc
				res.CCFPair = [2]string{ids[i], ids[j]}
				res.PeakCCFLag = lag
			}
		}
	}
	return res, nil
}

// String renders the result.
func (r Fig02Result) String() string {
	var maxACF float64
	for _, v := range r.BestACF[1:] {
		if v > maxACF {
			maxACF = v
		}
	}
	t := report.NewTable("Fig 2 — autocorrelation and cross-correlation (30min bins)",
		"metric", "value")
	t.AddRow("best ACF gateway", r.BestACFGateway)
	t.AddRow("max |ACF| lag>0", maxACF)
	t.AddRow("white-noise bound", r.SignificanceBound)
	t.AddRow("best CCF pair", fmt.Sprintf("%s & %s", r.CCFPair[0], r.CCFPair[1]))
	t.AddRow("CCF peak lag (bins)", r.PeakCCFLag)
	out := t.String()
	if len(r.BestACF) > 0 {
		out += "ACF:  " + report.Sparkline(r.BestACF) + "\n"
	}
	if len(r.CCF) > 0 {
		out += "CCF:  " + report.Sparkline(r.CCF) + "\n"
	}
	return out
}

// StationarityTestsResult reproduces Sec. 4.2(b): classical unit-root and
// stationarity tests on gateway traffic.
type StationarityTestsResult struct {
	Gateways int
	// KPSSRejected counts gateways whose KPSS test rejected level
	// stationarity (the paper: all of them).
	KPSSRejected int
	// ADFUnitRootNotRejected counts gateways where ADF could not reject a
	// unit root.
	ADFUnitRootNotRejected int
	// KSWeekPairsRejected / KSWeekPairs: Kolmogorov–Smirnov comparisons of
	// week-long value distributions (the "distribution evolves over time"
	// claim).
	KSWeekPairsRejected, KSWeekPairs int
}

// gatewayStationarity is one gateway's KPSS/ADF/KS outcome over
// the 28-day minute-resolution window.
type gatewayStationarity struct {
	kpss, adf          bool
	ksPairs, ksRejects int
}

// stationarity returns the unit-root/stationarity outcome of home i,
// the per-home unit TabStationarityTests fans out and then reduces in
// index order.
func (e *Env) stationarity(i int) gatewayStationarity {
	// The paper tests the raw one-minute series ("time series with
	// current one minute binning are highly irregular, there are no
	// stationary gateways").
	s := e.RawOverall(i, 28).FillMissing(0)
	var p gatewayStationarity
	if kp, err := tests.KPSS(s.Values, -1); err == nil && kp.PValue < corrsim.DefaultAlpha {
		p.kpss = true
	}
	if a, err := tests.ADF(s.Values, -1); err == nil && a.PValue > corrsim.DefaultAlpha {
		p.adf = true
	}
	// Pairwise KS across the four weeks of minute values. Each week
	// is sorted once, by radix, for its three comparisons, in place: s
	// is this call's own copy and the order-dependent tests are done
	// with it.
	const perWeek = 7 * 24 * 60
	var weeks [][]float64
	for w := 0; w < 4 && (w+1)*perWeek <= len(s.Values); w++ {
		week := s.Values[w*perWeek : (w+1)*perWeek]
		stats.Sort(week)
		weeks = append(weeks, week)
	}
	for i := 0; i < len(weeks); i++ {
		for j := i + 1; j < len(weeks); j++ {
			ks, err := tests.KolmogorovSmirnovSorted(weeks[i], weeks[j])
			if err != nil {
				continue
			}
			p.ksPairs++
			if ks.Rejected(corrsim.DefaultAlpha) {
				p.ksRejects++
			}
		}
	}
	return p
}

// TabStationarityTests runs KPSS/ADF/KS over the top observed gateways.
func TabStationarityTests(ctx context.Context, e *Env) (StationarityTestsResult, error) {
	top := e.TopObservedGateways(10)
	per := make([]gatewayStationarity, len(top))
	if err := e.ForEach(ctx, len(top), func(k int) {
		per[k] = e.stationarity(top[k])
	}); err != nil {
		return StationarityTestsResult{}, err
	}
	res := StationarityTestsResult{Gateways: len(top)}
	for _, p := range per {
		if p.kpss {
			res.KPSSRejected++
		}
		if p.adf {
			res.ADFUnitRootNotRejected++
		}
		res.KSWeekPairs += p.ksPairs
		res.KSWeekPairsRejected += p.ksRejects
	}
	return res, nil
}

// String renders the result.
func (r StationarityTestsResult) String() string {
	t := report.NewTable("Sec 4.2b — classical stationarity tests (top gateways)",
		"test", "outcome")
	t.AddRow("KPSS rejects stationarity", fmt.Sprintf("%d/%d gateways", r.KPSSRejected, r.Gateways))
	t.AddRow("ADF cannot reject unit root", fmt.Sprintf("%d/%d gateways", r.ADFUnitRootNotRejected, r.Gateways))
	t.AddRow("KS rejects week-pair equality", fmt.Sprintf("%d/%d pairs", r.KSWeekPairsRejected, r.KSWeekPairs))
	return t.String()
}

// DeviceCountResult reproduces Sec. 4.2(c): correlation between overall
// traffic and the number of connected devices.
type DeviceCountResult struct {
	Mean, Median, StdDev float64
	Gateways             int
	// SignificantShare is the fraction of gateways with a statistically
	// significant (but typically low) correlation.
	SignificantShare float64
}

// deviceCountCorrelation is corr(traffic, #connected devices) of one home
// over week one: a device counts as connected in a minute it moved any
// bytes, and minutes the gateway did not report count as no traffic from
// no devices.
func deviceCountCorrelation(g *dataset.Gateway) homeCoeff {
	const n = 7 * 24 * 60
	overall := make([]float64, n)
	counts := make([]float64, n)
	for m := range overall {
		x := g.Overall.Values[m]
		if math.IsNaN(x) {
			continue
		}
		overall[m] = x
		for _, d := range g.Devices {
			if in := d.In.Values[m]; !math.IsNaN(in) && in+d.Out.Values[m] > 0 {
				counts[m]++
			}
		}
	}
	// Routed through the Definition 1 machinery (UseSpearman variant):
	// Detailed exposes the raw ρ alongside its significance test.
	d := corrsim.Measure{Use: corrsim.UseSpearman}.Detailed(overall, counts)
	r := d.Spearman
	if d.N < 3 || math.IsNaN(r.Coeff) {
		return homeCoeff{}
	}
	return homeCoeff{coeff: r.Coeff, sig: r.Significant(corrsim.DefaultAlpha), ok: true}
}

// TabDeviceCountCorrelation reduces the per-gateway corr(traffic,
// #connected devices) of week one.
func TabDeviceCountCorrelation(ctx context.Context, e *Env) (DeviceCountResult, error) {
	if err := ctx.Err(); err != nil {
		return DeviceCountResult{}, err
	}
	var coeffs []float64
	significant := 0
	for _, gc := range e.gatewayCaches() {
		if !gc.devCount.ok {
			continue
		}
		coeffs = append(coeffs, gc.devCount.coeff)
		if gc.devCount.sig {
			significant++
		}
	}
	res := DeviceCountResult{
		Mean:     stats.Mean(coeffs),
		Median:   stats.Median(coeffs),
		StdDev:   stats.StdDev(coeffs),
		Gateways: len(coeffs),
	}
	if len(coeffs) > 0 {
		res.SignificantShare = float64(significant) / float64(len(coeffs))
	}
	return res, nil
}

// String renders the result.
func (r DeviceCountResult) String() string {
	t := report.NewTable("Sec 4.2c — corr(traffic, #connected devices)",
		"mean", "median", "stddev", "significant", "gateways")
	t.AddRow(r.Mean, r.Median, r.StdDev, fmt.Sprintf("%.0f%%", r.SignificantShare*100), r.Gateways)
	return t.String()
}

// Fig03Result reproduces Fig. 3: hierarchical clustering of gateway series
// under the correlation distance, cut at 0.4.
type Fig03Result struct {
	Gateways []string
	// Clusters holds the gateway IDs per cluster at cut 0.4.
	Clusters [][]string
	// MergeHeights are the dendrogram heights.
	MergeHeights []float64
}

// Fig03Clustering clusters the top gateways' first-week traffic (3h bins).
func Fig03Clustering(ctx context.Context, e *Env) (Fig03Result, error) {
	res := Fig03Result{}
	gateways, series, err := topObservedBins(ctx, e, 7, 3*time.Hour)
	if err != nil {
		return Fig03Result{}, err
	}
	res.Gateways = gateways
	g := corrsim.Default.Graph(series)
	m := cluster.DistanceMatrix(len(series), func(i, j int) float64 { return 1 - g.At(i, j) })
	dendro, err := cluster.Agglomerate(m, cluster.Average)
	if err != nil {
		return res, nil
	}
	res.MergeHeights = dendro.Heights
	for _, c := range dendro.Cut(0.4) {
		var ids []string
		for _, i := range c {
			ids = append(ids, res.Gateways[i])
		}
		res.Clusters = append(res.Clusters, ids)
	}
	return res, nil
}

// String renders the result.
func (r Fig03Result) String() string {
	t := report.NewTable("Fig 3 — correlation-distance clustering (cut 0.4)",
		"cluster", "members")
	for i, c := range r.Clusters {
		t.AddRow(i+1, fmt.Sprintf("%v", c))
	}
	return t.String()
}

// Fig04Result reproduces Fig. 4 and the τ analysis of Sec. 6.1.
type Fig04Result struct {
	Devices int
	// TauInHist and TauOutHist are histograms of τ with 5000-byte bins up
	// to 60000 (matching the paper's axes).
	TauInHist, TauOutHist *stats.Histogram
	// SmallShare etc. break devices into the τ groups of Sec. 6.1 using
	// the max of the directional thresholds.
	SmallShare, MediumShare, LargeShare float64
	// LargeIn / LargeOut count devices with τ > 40000 per direction
	// (paper: 24 and 15 of 934).
	LargeIn, LargeOut int
	// PortableShareSmall / FixedShareLarge document the type/τ dependency:
	// portables dominate the small group, fixed devices the large one.
	PortableShareSmall, FixedShareLarge float64
}

// Fig04BackgroundTau groups every active device's τ over WeeksMain.
func Fig04BackgroundTau(ctx context.Context, e *Env) (Fig04Result, error) {
	if err := ctx.Err(); err != nil {
		return Fig04Result{}, err
	}
	var tauIn, tauOut []float64
	var small, medium, large int
	var smallPortable, largeFixed int
	res := Fig04Result{}
	for _, gc := range e.gatewayCaches() {
		s := e.src.survey(gc.index)
		for _, dt := range gc.taus {
			th := dt.th
			res.Devices++
			tauIn = append(tauIn, th.TauIn)
			tauOut = append(tauOut, th.TauOut)
			if th.TauIn > background.LargeBytes {
				res.LargeIn++
			}
			if th.TauOut > background.LargeBytes {
				res.LargeOut++
			}
			switch background.GroupOf(math.Max(th.TauIn, th.TauOut)) {
			case background.Small:
				small++
				if s.class(dt.dev.MAC) == devices.Portable {
					smallPortable++
				}
			case background.Medium:
				medium++
			case background.Large:
				large++
				if s.class(dt.dev.MAC) == devices.Fixed {
					largeFixed++
				}
			}
		}
	}
	if res.Devices > 0 {
		res.SmallShare = float64(small) / float64(res.Devices)
		res.MediumShare = float64(medium) / float64(res.Devices)
		res.LargeShare = float64(large) / float64(res.Devices)
	}
	if small > 0 {
		res.PortableShareSmall = float64(smallPortable) / float64(small)
	}
	if large > 0 {
		res.FixedShareLarge = float64(largeFixed) / float64(large)
	}
	res.TauInHist = stats.NewHistogram(tauIn, 0, 60000, 12)
	res.TauOutHist = stats.NewHistogram(tauOut, 0, 60000, 12)
	return res, nil
}

// String renders the result.
func (r Fig04Result) String() string {
	t := report.NewTable("Fig 4 / Sec 6.1 — background threshold τ per device",
		"metric", "value")
	t.AddRow("devices", r.Devices)
	t.AddRow("small (τ<=5000)", fmt.Sprintf("%.0f%%", r.SmallShare*100))
	t.AddRow("medium (5000<τ<=40000)", fmt.Sprintf("%.0f%%", r.MediumShare*100))
	t.AddRow("large (τ>40000)", fmt.Sprintf("%.0f%%", r.LargeShare*100))
	t.AddRow("large-τ incoming devices", r.LargeIn)
	t.AddRow("large-τ outgoing devices", r.LargeOut)
	t.AddRow("portable share of small group", fmt.Sprintf("%.0f%%", r.PortableShareSmall*100))
	t.AddRow("fixed share of large group", fmt.Sprintf("%.0f%%", r.FixedShareLarge*100))
	out := t.String()
	if r.TauInHist != nil {
		out += report.Histogram("τ incoming (bytes/min):", 0, r.TauInHist.Width, r.TauInHist.Counts, 40)
	}
	return out
}
