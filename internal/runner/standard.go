package runner

import (
	"context"
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
		New("fig1", "typical gateway distribution anatomy",
			func(ctx context.Context, e *experiments.Env) (Result, error) {
				r, err := experiments.Fig01TypicalGateway(ctx, e)
				if err != nil {
					return Result{}, err
				}
				res.Fig01 = r
				return Result{Text: r.String()}, nil
			}),
		New("inout", "incoming/outgoing correlation",
			func(ctx context.Context, e *experiments.Env) (Result, error) {
				r, err := experiments.TabInOutCorrelation(ctx, e)
				if err != nil {
					return Result{}, err
				}
				res.InOut = r
				return Result{Text: r.String()}, nil
			}),
		New("fig2", "autocorrelation and cross-correlation",
			func(ctx context.Context, e *experiments.Env) (Result, error) {
				r, err := experiments.Fig02ACFCCF(ctx, e)
				if err != nil {
					return Result{}, err
				}
				res.Fig02 = r
				return Result{Text: r.String()}, nil
			}),
		New("unitroot", "KPSS/ADF/KS stationarity tests",
			func(ctx context.Context, e *experiments.Env) (Result, error) {
				r, err := experiments.TabStationarityTests(ctx, e)
				if err != nil {
					return Result{}, err
				}
				res.UnitRoot = r
				return Result{Text: r.String()}, nil
			}),
		New("devcount", "traffic vs connected-device count",
			func(ctx context.Context, e *experiments.Env) (Result, error) {
				r, err := experiments.TabDeviceCountCorrelation(ctx, e)
				if err != nil {
					return Result{}, err
				}
				res.DevCount = r
				return Result{Text: r.String()}, nil
			}),
		New("fig3", "correlation-distance clustering",
			func(ctx context.Context, e *experiments.Env) (Result, error) {
				r, err := experiments.Fig03Clustering(ctx, e)
				if err != nil {
					return Result{}, err
				}
				res.Fig03 = r
				return Result{Text: r.String()}, nil
			}),
		New("fig4", "background threshold distribution",
			func(ctx context.Context, e *experiments.Env) (Result, error) {
				r, err := experiments.Fig04BackgroundTau(ctx, e)
				if err != nil {
					return Result{}, err
				}
				res.Fig04 = r
				return Result{Text: r.String()}, nil
			}),
		New("heuristic", "device-type heuristic vs survey truth",
			func(ctx context.Context, e *experiments.Env) (Result, error) {
				r, err := experiments.TabHeuristicValidation(ctx, e)
				if err != nil {
					return Result{}, err
				}
				res.Heuristic = r
				return Result{Text: r.String()}, nil
			}),
		New("fig5", "dominant devices and types",
			func(ctx context.Context, e *experiments.Env) (Result, error) {
				r, err := experiments.Fig05DominantDevices(ctx, e)
				if err != nil {
					return Result{}, err
				}
				res.Fig05 = r
				return Result{Text: r.String()}, nil
			}),
		New("agreement", "dominance notion agreement",
			func(ctx context.Context, e *experiments.Env) (Result, error) {
				r, err := experiments.TabDominanceAgreement(ctx, e)
				if err != nil {
					return Result{}, err
				}
				res.Agreement = r
				return Result{Text: r.String()}, nil
			}),
		New("residents", "dominants vs residents survey",
			func(ctx context.Context, e *experiments.Env) (Result, error) {
				r, err := experiments.TabResidentsCorrelation(ctx, e)
				if err != nil {
					return Result{}, err
				}
				res.Residents = r
				return Result{Text: r.String()}, nil
			}),
		New("ablation", "similarity measure variant ablation",
			func(ctx context.Context, e *experiments.Env) (Result, error) {
				r, err := experiments.TabSimilarityAblation(ctx, e)
				if err != nil {
					return Result{}, err
				}
				res.Ablation = r
				return Result{Text: r.String()}, nil
			}),
		New("fig6", "weekly aggregation curves",
			func(ctx context.Context, e *experiments.Env) (Result, error) {
				r, err := experiments.Fig06WeeklyAggregation(ctx, e)
				if err != nil {
					return Result{}, err
				}
				res.Fig06 = r
				return Result{Text: r.String()}, nil
			}),
		New("fig7", "stationary gateways per granularity",
			func(ctx context.Context, e *experiments.Env) (Result, error) {
				r, err := experiments.Fig07StationaryGateways(ctx, e)
				if err != nil {
					return Result{}, err
				}
				res.Fig07 = r
				return Result{Text: r.String()}, nil
			}),
		New("fig8", "daily aggregation curves",
			func(ctx context.Context, e *experiments.Env) (Result, error) {
				r, err := experiments.Fig08DailyAggregation(ctx, e)
				if err != nil {
					return Result{}, err
				}
				res.Fig08 = r
				return Result{Text: r.String()}, nil
			}),
		New("stationary", "stationary share with/without background",
			func(ctx context.Context, e *experiments.Env) (Result, error) {
				r, err := experiments.TabStationaryShare(ctx, e)
				if err != nil {
					return Result{}, err
				}
				res.Share = r
				return Result{Text: r.String()}, nil
			}),
		New("motifs", "weekly and daily motifs (figs 9-16)",
			func(ctx context.Context, e *experiments.Env) (Result, error) {
				return runMotifChain(ctx, e, res)
			}),
	}
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
