// Package core is the front door of homesight: one Framework value wires
// together the paper's traffic-analysis framework — the correlation
// similarity measure (Def. 1), strong stationarity (Def. 2), best-
// aggregation selection (Def. 3), dominant devices (Def. 4) and motif
// discovery (Def. 5) — with the background-traffic handling of Sec. 6.1.
//
// The zero value (or Default) reproduces every parameter choice in the
// paper: α = 0.05, stationarity bound 0.6, dominance φ = 0.6, motif
// φ = 0.8 with group fraction ¾, background cap 5000 B/min, weekly windows
// of 8h bins phased at 2am, daily windows of 3h bins.
package core

import (
	"time"

	"homesight/internal/aggregate"
	"homesight/internal/background"
	"homesight/internal/corrsim"
	"homesight/internal/dominance"
	"homesight/internal/motif"
	"homesight/internal/stationarity"
	"homesight/internal/timeseries"
)

// Framework bundles the paper's analysis components under one set of
// parameters.
type Framework struct {
	// Alpha is the significance level for all correlation tests (0 → .05).
	Alpha float64
	// StationarityCorr is the Definition 2 bound (0 → 0.6).
	StationarityCorr float64
	// DominancePhi is the Definition 4 threshold (0 → 0.6).
	DominancePhi float64
	// MotifPhi is the Definition 5 individual threshold (0 → 0.8).
	MotifPhi float64
}

// Default is the paper's parameterization.
var Default = Framework{}

// Measure returns the Definition 1 similarity measure.
func (f Framework) Measure() corrsim.Measure {
	return corrsim.Measure{Alpha: f.Alpha}
}

// Similarity is cor(X, Y) per Definition 1.
func (f Framework) Similarity(x, y []float64) float64 {
	return f.Measure().Similarity(x, y)
}

// Distance is the correlation distance 1 − cor(X, Y).
func (f Framework) Distance(x, y []float64) float64 {
	return f.Measure().Distance(x, y)
}

// Checker returns the Definition 2 strong-stationarity checker.
func (f Framework) Checker() stationarity.Checker {
	return stationarity.Checker{
		Measure:       f.Measure(),
		CorrThreshold: f.StationarityCorr,
		Alpha:         f.Alpha,
	}
}

// StronglyStationary evaluates Definition 2 over non-overlapping windows.
func (f Framework) StronglyStationary(windows [][]float64) stationarity.Result {
	return f.Checker().Check(windows)
}

// Analyzer returns the Definition 3 aggregation analyzer.
func (f Framework) Analyzer() aggregate.Analyzer {
	return aggregate.Analyzer{Checker: f.Checker()}
}

// BestWeeklyAggregation sweeps the paper's weekly candidate binnings
// (midnight and 2am phases) over the cohort and returns the curves plus the
// winning point by the stationary-gateway criterion.
func (f Framework) BestWeeklyAggregation(cohort []*timeseries.Series) (points []aggregate.CurvePoint, best aggregate.CurvePoint, err error) {
	an := f.Analyzer()
	for _, bin := range aggregate.WeeklyBins {
		phases := []time.Duration{0}
		if bin > 2*time.Hour {
			phases = append(phases, 2*time.Hour)
		}
		for _, phase := range phases {
			p, err := an.WeeklyPoint(cohort, bin, phase)
			if err != nil {
				return nil, aggregate.CurvePoint{}, err
			}
			points = append(points, p)
		}
	}
	return points, aggregate.Best(points, true), nil
}

// BestDailyAggregation sweeps the paper's daily candidate binnings.
func (f Framework) BestDailyAggregation(cohort []*timeseries.Series) (points []aggregate.CurvePoint, best aggregate.CurvePoint, err error) {
	an := f.Analyzer()
	for _, bin := range aggregate.DailyBins {
		p, err := an.DailyPoint(cohort, bin)
		if err != nil {
			return nil, aggregate.CurvePoint{}, err
		}
		points = append(points, p)
	}
	return points, aggregate.Best(points, true), nil
}

// Detector returns the Definition 4 dominance detector.
func (f Framework) Detector() dominance.Detector {
	return dominance.Detector{Measure: f.Measure(), Phi: f.DominancePhi}
}

// Dominants detects the φ-dominant devices of a gateway.
func (f Framework) Dominants(gw *timeseries.Series, devs []dominance.DeviceSeries) dominance.Result {
	return f.Detector().Detect(gw, devs)
}

// Miner returns the Definition 5 motif miner.
func (f Framework) Miner() motif.Miner {
	return motif.Miner{Measure: f.Measure(), Phi: f.MotifPhi}
}

// MineMotifs discovers motifs among window instances.
func (f Framework) MineMotifs(instances []motif.Instance) []*motif.Motif {
	return f.Miner().Mine(instances)
}

// BackgroundTau estimates a device's capped background threshold from its
// directional traffic (Sec. 6.1).
func (f Framework) BackgroundTau(in, out *timeseries.Series) float64 {
	return background.EstimateThreshold(in, out).Tau()
}

// ActiveTraffic removes background traffic below tau from a series.
func (f Framework) ActiveTraffic(s *timeseries.Series, tau float64) *timeseries.Series {
	return background.ActiveSeries(s, tau)
}

// WeeklyInstances applies the paper's best weekly mapping (8h bins at 2am)
// to a gateway series and wraps the windows as motif instances.
func (f Framework) WeeklyInstances(gatewayID string, s *timeseries.Series) ([]motif.Instance, error) {
	return instances(gatewayID, s, aggregate.BestWeekly)
}

// DailyInstances applies the paper's best daily mapping (3h bins).
func (f Framework) DailyInstances(gatewayID string, s *timeseries.Series) ([]motif.Instance, error) {
	return instances(gatewayID, s, aggregate.BestDaily)
}

func instances(gatewayID string, s *timeseries.Series, spec timeseries.WindowSpec) ([]motif.Instance, error) {
	wins, err := spec.Windows(s)
	if err != nil {
		return nil, err
	}
	out := make([]motif.Instance, 0, len(wins))
	for _, w := range wins {
		if !w.Observed() {
			continue
		}
		out = append(out, motif.Instance{GatewayID: gatewayID, Window: w})
	}
	return out, nil
}
