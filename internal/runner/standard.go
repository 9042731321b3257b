package runner

import (
	"context"
	"fmt"
	"strings"

	"homesight/internal/experiments"
)

// StandardExperiments builds the paper's experiment suite in publication
// order. Each runner renders its own report fragment and, when res is
// non-nil, stores its structured result in the corresponding Results field
// so a full run can evaluate the cross-experiment shape checks. Every
// experiment writes a distinct field, so concurrent execution is race-free.
func StandardExperiments(res *experiments.Results) []Experiment {
	if res == nil {
		res = &experiments.Results{}
	}
	return []Experiment{
		step("fig1", "typical gateway distribution anatomy", experiments.Fig01TypicalGateway, &res.Fig01),
		step("inout", "incoming/outgoing correlation", experiments.TabInOutCorrelation, &res.InOut),
		step("fig2", "autocorrelation and cross-correlation", experiments.Fig02ACFCCF, &res.Fig02),
		step("unitroot", "KPSS/ADF/KS stationarity tests", experiments.TabStationarityTests, &res.UnitRoot),
		step("devcount", "traffic vs connected-device count", experiments.TabDeviceCountCorrelation, &res.DevCount),
		step("fig3", "correlation-distance clustering", experiments.Fig03Clustering, &res.Fig03),
		step("fig4", "background threshold distribution", experiments.Fig04BackgroundTau, &res.Fig04),
		step("heuristic", "device-type heuristic vs survey truth", experiments.TabHeuristicValidation, &res.Heuristic),
		step("fig5", "dominant devices and types", experiments.Fig05DominantDevices, &res.Fig05),
		step("agreement", "dominance notion agreement", experiments.TabDominanceAgreement, &res.Agreement),
		step("residents", "dominants vs residents survey", experiments.TabResidentsCorrelation, &res.Residents),
		step("ablation", "similarity measure variant ablation", experiments.TabSimilarityAblation, &res.Ablation),
		step("fig6", "weekly aggregation curves", experiments.Fig06WeeklyAggregation, &res.Fig06),
		step("fig7", "stationary gateways per granularity", experiments.Fig07StationaryGateways, &res.Fig07),
		step("fig8", "daily aggregation curves", experiments.Fig08DailyAggregation, &res.Fig08),
		step("stationary", "stationary share with/without background", experiments.TabStationaryShare, &res.Share),
		New("motifs", "weekly and daily motifs (figs 9-16)",
			func(ctx context.Context, e *experiments.Env) (Result, error) {
				return runMotifChain(ctx, e, res)
			}),
	}
}

// step is an experiment that runs one experiments function, keeps its
// result in *dst and renders it.
func step[T fmt.Stringer](id, doc string, run func(context.Context, *experiments.Env) (T, error), dst *T) Experiment {
	return New(id, doc, func(ctx context.Context, e *experiments.Env) (Result, error) {
		r, err := run(ctx, e)
		if err != nil {
			return Result{}, err
		}
		*dst = r
		return Result{Text: r.String()}, nil
	})
}

// runMotifChain chains Figs. 9-16: mining, motifs of interest and per-motif
// dominance for both families. The steps are order-dependent, so they run
// as one experiment; the per-gateway inner loops still fan out through the
// Env's parallelism.
func runMotifChain(ctx context.Context, e *experiments.Env, res *experiments.Results) (Result, error) {
	var b strings.Builder
	var err error

	if res.Weekly, err = experiments.MineWeeklyMotifs(ctx, e); err != nil {
		return Result{}, err
	}
	b.WriteString(res.Weekly.String())
	res.WeeklyOfInterest = experiments.WeeklyMotifsOfInterest(res.Weekly)
	b.WriteString(experiments.RenderProfiles("Fig 11 — weekly motifs of interest", res.WeeklyOfInterest))
	if res.WeeklyDominance, err = experiments.AnalyzeMotifDominance(ctx, e, res.Weekly, res.WeeklyOfInterest); err != nil {
		return Result{}, err
	}
	b.WriteString(experiments.RenderMotifDominance("Fig 12/13 — weekly motifs", res.WeeklyDominance, false))

	if res.Daily, err = experiments.MineDailyMotifs(ctx, e); err != nil {
		return Result{}, err
	}
	b.WriteString(res.Daily.String())
	res.DailyOfInterest = experiments.DailyMotifsOfInterest(res.Daily)
	b.WriteString(experiments.RenderProfiles("Fig 14 — daily motifs of interest", res.DailyOfInterest))
	if res.DailyDominance, err = experiments.AnalyzeMotifDominance(ctx, e, res.Daily, res.DailyOfInterest); err != nil {
		return Result{}, err
	}
	b.WriteString(experiments.RenderMotifDominance("Fig 15/16 — daily motifs", res.DailyDominance, true))

	return Result{Text: b.String()}, nil
}
