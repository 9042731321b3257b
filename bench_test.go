// Package homesight's root benchmarks regenerate every table and figure of
// the paper (one benchmark per experiment, as indexed in DESIGN.md) on a
// reduced deployment, plus ablation and micro benchmarks for the framework
// primitives. Run:
//
//	go test -bench=. -benchmem
//
// The full-scale numbers live in EXPERIMENTS.md (produced by
// `homesight experiments`); these benchmarks exist to regenerate each
// artifact and to track the cost of the analyses.
package homesight

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"homesight/internal/aggregate"
	"homesight/internal/baselines"
	"homesight/internal/corrsim"
	"homesight/internal/experiments"
	"homesight/internal/motif"
	"homesight/internal/stats/corr"
	"homesight/internal/stats/tests"
	"homesight/internal/synth"
)

// benchEnv is the shared reduced deployment: 16 homes, 6 weeks.
var (
	benchOnce sync.Once
	benchE    *experiments.Env
	benchErr  error

	weeklyOnce sync.Once
	weeklySet  experiments.MotifSetResult
	weeklyProf []experiments.MotifProfile

	dailyOnce sync.Once
	dailySet  experiments.MotifSetResult
	dailyProf []experiments.MotifProfile
)

func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchE, benchErr = experiments.NewEnv(
			experiments.WithHomes(16), experiments.WithWeeks(6))
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchE
}

func weeklyMotifs(b *testing.B) (experiments.MotifSetResult, []experiments.MotifProfile) {
	b.Helper()
	e := env(b)
	weeklyOnce.Do(func() {
		var err error
		weeklySet, err = experiments.MineWeeklyMotifs(context.Background(), e)
		if err != nil {
			b.Fatal(err)
		}
		weeklyProf = experiments.WeeklyMotifsOfInterest(weeklySet)
	})
	return weeklySet, weeklyProf
}

func dailyMotifs(b *testing.B) (experiments.MotifSetResult, []experiments.MotifProfile) {
	b.Helper()
	e := env(b)
	dailyOnce.Do(func() {
		var err error
		dailySet, err = experiments.MineDailyMotifs(context.Background(), e)
		if err != nil {
			b.Fatal(err)
		}
		dailyProf = experiments.DailyMotifsOfInterest(dailySet)
	})
	return dailySet, dailyProf
}

// ── One benchmark per paper artifact ────────────────────────────────────

func BenchmarkFig01TypicalGateway(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig01TypicalGateway(context.Background(), e)
		if err != nil || r.GatewayID == "" {
			b.Fatalf("bad result: %v", err)
		}
	}
}

func BenchmarkTabInOutCorrelation(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.TabInOutCorrelation(context.Background(), e)
		if err != nil || r.Gateways == 0 {
			b.Fatalf("bad result: %v", err)
		}
	}
}

func BenchmarkFig02ACFCCF(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig02ACFCCF(context.Background(), e)
		if err != nil || len(r.BestACF) == 0 {
			b.Fatalf("bad result: %v", err)
		}
	}
}

func BenchmarkTabStationarityTests(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.TabStationarityTests(context.Background(), e)
		if err != nil || r.Gateways == 0 {
			b.Fatalf("bad result: %v", err)
		}
	}
}

func BenchmarkTabDeviceCountCorrelation(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.TabDeviceCountCorrelation(context.Background(), e)
		if err != nil || r.Gateways == 0 {
			b.Fatalf("bad result: %v", err)
		}
	}
}

func BenchmarkFig03Clustering(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig03Clustering(context.Background(), e)
		if err != nil || len(r.Clusters) == 0 {
			b.Fatalf("bad result: %v", err)
		}
	}
}

func BenchmarkFig04BackgroundTau(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig04BackgroundTau(context.Background(), e)
		if err != nil || r.Devices == 0 {
			b.Fatalf("bad result: %v", err)
		}
	}
}

func BenchmarkFig05DominantDevices(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig05DominantDevices(context.Background(), e)
		if err != nil || r.Gateways == 0 {
			b.Fatalf("bad result: %v", err)
		}
	}
}

func BenchmarkTabDominanceAgreement(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.TabDominanceAgreement(context.Background(), e)
		if err != nil || r.Gateways == 0 {
			b.Fatalf("bad result: %v", err)
		}
	}
}

func BenchmarkTabResidentsCorrelation(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.TabResidentsCorrelation(context.Background(), e)
		if err != nil || r.SurveyHomes == 0 {
			b.Fatalf("bad result: %v", err)
		}
	}
}

func BenchmarkFig06WeeklyAggregation(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig06WeeklyAggregation(context.Background(), e)
		if err != nil || r.Cohort == 0 {
			b.Fatalf("bad result: %v", err)
		}
	}
}

func BenchmarkFig07StationaryGateways(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig07StationaryGateways(context.Background(), e)
		if err != nil || len(r.Bins) == 0 {
			b.Fatalf("bad result: %v", err)
		}
	}
}

func BenchmarkFig08DailyAggregation(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig08DailyAggregation(context.Background(), e)
		if err != nil || len(r.Points) == 0 {
			b.Fatalf("bad result: %v", err)
		}
	}
}

func BenchmarkTabStationaryShare(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.TabStationaryShare(context.Background(), e)
		if err != nil || r.Cohort == 0 {
			b.Fatalf("bad result: %v", err)
		}
	}
}

func BenchmarkFig09MotifSupport(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := experiments.MineWeeklyMotifs(context.Background(), e)
		if err != nil || w.Windows == 0 {
			b.Fatalf("bad result: %v", err)
		}
		_ = w.SupportDistribution()
	}
}

func BenchmarkFig10MotifsPerGateway(b *testing.B) {
	set, _ := dailyMotifs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if per := motif.PerGateway(set.Motifs); len(per) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFig11WeeklyMotifs(b *testing.B) {
	set, _ := weeklyMotifs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := experiments.WeeklyMotifsOfInterest(set); len(p) == 0 {
			b.Fatal("no motifs of interest")
		}
	}
}

func BenchmarkFig12WeeklyMotifDominants(b *testing.B) {
	set, prof := weeklyMotifs(b)
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := experiments.AnalyzeMotifDominance(context.Background(), e, set, prof)
		if err != nil || len(d) == 0 {
			b.Fatalf("bad result: %v", err)
		}
	}
}

func BenchmarkFig13WeeklyMotifTypes(b *testing.B) {
	set, prof := weeklyMotifs(b)
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doms, err := experiments.AnalyzeMotifDominance(context.Background(), e, set, prof)
		if err != nil {
			b.Fatal(err)
		}
		_ = experiments.RenderMotifDominance("fig13", doms, false)
	}
}

func BenchmarkFig14DailyMotifs(b *testing.B) {
	set, _ := dailyMotifs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := experiments.DailyMotifsOfInterest(set); len(p) == 0 {
			b.Fatal("no motifs of interest")
		}
	}
}

func BenchmarkFig15DailyMotifDominants(b *testing.B) {
	set, prof := dailyMotifs(b)
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := experiments.AnalyzeMotifDominance(context.Background(), e, set, prof)
		if err != nil || len(d) == 0 {
			b.Fatalf("bad result: %v", err)
		}
	}
}

func BenchmarkFig16DailyMotifTypes(b *testing.B) {
	set, prof := dailyMotifs(b)
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doms, err := experiments.AnalyzeMotifDominance(context.Background(), e, set, prof)
		if err != nil {
			b.Fatal(err)
		}
		_ = experiments.RenderMotifDominance("fig16", doms, true)
	}
}

// ── Ablation benchmarks (DESIGN.md §5) ──────────────────────────────────

// randomWindows builds n correlated window pairs for measure ablations.
func randomWindows(n, points int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	base := make([]float64, points)
	for i := range base {
		base[i] = rng.ExpFloat64() * 1e5
	}
	for w := range out {
		vals := make([]float64, points)
		for i := range vals {
			vals[i] = base[i]*0.7 + rng.ExpFloat64()*3e4
		}
		out[w] = vals
	}
	return out
}

// BenchmarkAblationMaxOfThreeVsPearson compares the Definition 1 max-of-
// three measure against Pearson alone on the same window set.
func BenchmarkAblationMaxOfThreeVsPearson(b *testing.B) {
	wins := randomWindows(40, 21, 1)
	b.Run("max-of-three", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for x := 0; x < len(wins); x++ {
				for y := x + 1; y < len(wins); y++ {
					_ = corrsim.Default.Detailed(wins[x], wins[y]).Similarity
				}
			}
		}
	})
	b.Run("pearson-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for x := 0; x < len(wins); x++ {
				for y := x + 1; y < len(wins); y++ {
					r, err := corr.Pearson(wins[x], wins[y])
					if err != nil {
						b.Fatal(err)
					}
					_ = r
				}
			}
		}
	})
}

// BenchmarkAblationPhi measures motif mining at different φ thresholds.
func BenchmarkAblationPhi(b *testing.B) {
	set, _ := dailyMotifs(b)
	var insts []motif.Instance
	for _, m := range set.Motifs {
		insts = append(insts, m.Members...)
	}
	for _, phi := range []float64{0.6, 0.8, 0.9} {
		b.Run(phiName(phi), func(b *testing.B) {
			miner := motif.Miner{Phi: phi}
			for i := 0; i < b.N; i++ {
				if got := miner.Mine(insts); len(got) == 0 {
					b.Fatal("no motifs")
				}
			}
		})
	}
}

func phiName(phi float64) string {
	switch phi {
	case 0.6:
		return "phi=0.6"
	case 0.8:
		return "phi=0.8"
	default:
		return "phi=0.9"
	}
}

// BenchmarkAblationWindowPhase compares midnight vs 2am weekly windows.
func BenchmarkAblationWindowPhase(b *testing.B) {
	e := env(b)
	_, cohort := e.WeeklyCohort(e.WeeksMain)
	an := aggregate.Default
	b.Run("midnight", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := an.WeeklyPoint(cohort, 8*time.Hour, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("2am", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := an.WeeklyPoint(cohort, 8*time.Hour, 2*time.Hour); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ── Micro benchmarks for the framework primitives ───────────────────────

func benchSeries(n int, seed int64) ([]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.ExpFloat64() * 1e5
		y[i] = x[i]*0.6 + rng.ExpFloat64()*4e4
	}
	return x, y
}

func BenchmarkPearson10k(b *testing.B) {
	x, y := benchSeries(10080, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := corr.Pearson(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpearman10k(b *testing.B) {
	x, y := benchSeries(10080, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := corr.Spearman(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKendall10k(b *testing.B) {
	x, y := benchSeries(10080, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := corr.Kendall(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKolmogorovSmirnov10k(b *testing.B) {
	x, y := benchSeries(10080, 5)
	sort.Float64s(x)
	sort.Float64s(y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tests.KolmogorovSmirnovSorted(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDTW1k(b *testing.B) {
	x, y := benchSeries(1000, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baselines.DTW(x, y, 50)
	}
}

func BenchmarkSynthHomeGeneration(b *testing.B) {
	dep := synth.NewDeployment(synth.Config{Homes: 200, Weeks: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := dep.Home(i % 200)
		if total := h.Overall().Total(); total < 0 {
			b.Fatal("negative traffic")
		}
	}
}

func BenchmarkWeeklyWindowing(b *testing.B) {
	dep := synth.NewDeployment(synth.Config{Homes: 2, Weeks: 6})
	s := dep.Home(0).Overall().FillMissing(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aggregate.BestWeekly.Windows(s); err != nil {
			b.Fatal(err)
		}
	}
}
